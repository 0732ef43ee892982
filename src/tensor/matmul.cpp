#include "tensor/matmul.hpp"

#include "common/error.hpp"

namespace advh::ops {

namespace {
void check_rank2(const tensor& t, const char* name) {
  ADVH_CHECK_MSG(t.dims().rank() == 2, std::string(name) + " must be rank 2");
}

constexpr std::size_t kRows = 4;  // rows of C per register block
constexpr std::size_t kCols = 8;  // columns of C per register block

// The A operand of C = A * B, read through two strides: element (r, s) is
// p[r * rs + s * ks]. A row-major (m, k) matrix is {p, k, 1}; its transpose,
// read from the same storage, is {p, 1, k}.
struct a_operand {
  const float* p;
  std::size_t rs;
  std::size_t ks;
  a_operand rows_from(std::size_t r) const { return {p + r * rs, rs, ks}; }
};

// C[0:4, 0:8] = A[0:4, 0:k] * B[0:k, 0:8]. Written with 32 scalar
// accumulators so that GCC's SLP pass keeps them in vector registers at -O2;
// an accumulator array spills to the stack instead.
void block_4x8(a_operand a, const float* b, std::size_t ldb, std::size_t k,
               float* c, std::size_t ldc) {
  float c00{}, c01{}, c02{}, c03{}, c04{}, c05{}, c06{}, c07{};
  float c10{}, c11{}, c12{}, c13{}, c14{}, c15{}, c16{}, c17{};
  float c20{}, c21{}, c22{}, c23{}, c24{}, c25{}, c26{}, c27{};
  float c30{}, c31{}, c32{}, c33{}, c34{}, c35{}, c36{}, c37{};
  const std::size_t rs = a.rs;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    const float b0 = br[0], b1 = br[1], b2 = br[2], b3 = br[3];
    const float b4 = br[4], b5 = br[5], b6 = br[6], b7 = br[7];
    const float* ak = a.p + kk * a.ks;
    const float a0 = ak[0], a1 = ak[rs], a2 = ak[2 * rs], a3 = ak[3 * rs];
    c00 += a0 * b0; c01 += a0 * b1; c02 += a0 * b2; c03 += a0 * b3;
    c04 += a0 * b4; c05 += a0 * b5; c06 += a0 * b6; c07 += a0 * b7;
    c10 += a1 * b0; c11 += a1 * b1; c12 += a1 * b2; c13 += a1 * b3;
    c14 += a1 * b4; c15 += a1 * b5; c16 += a1 * b6; c17 += a1 * b7;
    c20 += a2 * b0; c21 += a2 * b1; c22 += a2 * b2; c23 += a2 * b3;
    c24 += a2 * b4; c25 += a2 * b5; c26 += a2 * b6; c27 += a2 * b7;
    c30 += a3 * b0; c31 += a3 * b1; c32 += a3 * b2; c33 += a3 * b3;
    c34 += a3 * b4; c35 += a3 * b5; c36 += a3 * b6; c37 += a3 * b7;
  }
  float* c0 = c;
  float* c1 = c + 1 * ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  c0[0] = c00; c0[1] = c01; c0[2] = c02; c0[3] = c03;
  c0[4] = c04; c0[5] = c05; c0[6] = c06; c0[7] = c07;
  c1[0] = c10; c1[1] = c11; c1[2] = c12; c1[3] = c13;
  c1[4] = c14; c1[5] = c15; c1[6] = c16; c1[7] = c17;
  c2[0] = c20; c2[1] = c21; c2[2] = c22; c2[3] = c23;
  c2[4] = c24; c2[5] = c25; c2[6] = c26; c2[7] = c27;
  c3[0] = c30; c3[1] = c31; c3[2] = c32; c3[3] = c33;
  c3[4] = c34; c3[5] = c35; c3[6] = c36; c3[7] = c37;
}

// The same for C[0:2, 0:8], with scalar accumulators for the same reason.
void block_2x8(a_operand a, const float* b, std::size_t ldb, std::size_t k,
               float* c, std::size_t ldc) {
  float c00{}, c01{}, c02{}, c03{}, c04{}, c05{}, c06{}, c07{};
  float c10{}, c11{}, c12{}, c13{}, c14{}, c15{}, c16{}, c17{};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    const float b0 = br[0], b1 = br[1], b2 = br[2], b3 = br[3];
    const float b4 = br[4], b5 = br[5], b6 = br[6], b7 = br[7];
    const float* ak = a.p + kk * a.ks;
    const float a0 = ak[0], a1 = ak[a.rs];
    c00 += a0 * b0; c01 += a0 * b1; c02 += a0 * b2; c03 += a0 * b3;
    c04 += a0 * b4; c05 += a0 * b5; c06 += a0 * b6; c07 += a0 * b7;
    c10 += a1 * b0; c11 += a1 * b1; c12 += a1 * b2; c13 += a1 * b3;
    c14 += a1 * b4; c15 += a1 * b5; c16 += a1 * b6; c17 += a1 * b7;
  }
  float* c0 = c;
  float* c1 = c + ldc;
  c0[0] = c00; c0[1] = c01; c0[2] = c02; c0[3] = c03;
  c0[4] = c04; c0[5] = c05; c0[6] = c06; c0[7] = c07;
  c1[0] = c10; c1[1] = c11; c1[2] = c12; c1[3] = c13;
  c1[4] = c14; c1[5] = c15; c1[6] = c16; c1[7] = c17;
}

// And for C[0:1, 0:8].
void block_1x8(a_operand a, const float* b, std::size_t ldb, std::size_t k,
               float* c) {
  float c00{}, c01{}, c02{}, c03{}, c04{}, c05{}, c06{}, c07{};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    const float a0 = a.p[kk * a.ks];
    c00 += a0 * br[0]; c01 += a0 * br[1]; c02 += a0 * br[2];
    c03 += a0 * br[3]; c04 += a0 * br[4]; c05 += a0 * br[5];
    c06 += a0 * br[6]; c07 += a0 * br[7];
  }
  c[0] = c00; c[1] = c01; c[2] = c02; c[3] = c03;
  c[4] = c04; c[5] = c05; c[6] = c06; c[7] = c07;
}

// Any block of C the 8-column kernels do not cover, one element at a time.
void block_edge(a_operand a, const float* b, std::size_t ldb, std::size_t k,
                float* c, std::size_t ldc, std::size_t rows,
                std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a.p[i * a.rs + kk * a.ks] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

// C (m, n) = A (m, k) * B (k, n), B and C row-major with row stride n.
// Every element of C sums its products in ascending k, in float, from +0.
// A round-to-nearest sum is -0 only when both addends are -0, so an
// accumulator that starts at +0 is never -0, and adding a +-0 product
// leaves it unchanged: for finite operands the sum equals one that skips
// the zero entries of A.
void gemm(a_operand a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n) {
  // Column panels outermost: every row block of A passes over the same
  // k x 8 panel of B before the next one is touched. The 1-3 rows left
  // below the 4-row blocks take a 2-row block, a 1-row block or both.
  std::size_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    std::size_t i = 0;
    for (; i + kRows <= m; i += kRows) {
      block_4x8(a.rows_from(i), b + j, n, k, c + i * n + j, n);
    }
    if (i + 2 <= m) {
      block_2x8(a.rows_from(i), b + j, n, k, c + i * n + j, n);
      i += 2;
    }
    if (i < m) block_1x8(a.rows_from(i), b + j, n, k, c + i * n + j);
  }
  block_edge(a, b + j, n, k, c + j, n, m, n - j);
}

// C[0:2, 0:4] = A[0:2, 0:k] * B[0:4, 0:k]^T, A and B row-major with row
// stride k: eight independent double sums, each the one dot_double computes.
void block_2x4_double(const float* a, const float* b, std::size_t k,
                      float* c, std::size_t ldc) {
  double c00{}, c01{}, c02{}, c03{}, c10{}, c11{}, c12{}, c13{};
  const float* a1 = a + k;
  const float* b1 = b + k;
  const float* b2 = b + 2 * k;
  const float* b3 = b + 3 * k;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double x0 = a[kk], x1 = a1[kk];
    const double y0 = b[kk], y1 = b1[kk], y2 = b2[kk], y3 = b3[kk];
    c00 += x0 * y0; c01 += x0 * y1; c02 += x0 * y2; c03 += x0 * y3;
    c10 += x1 * y0; c11 += x1 * y1; c12 += x1 * y2; c13 += x1 * y3;
  }
  c[0] = static_cast<float>(c00); c[1] = static_cast<float>(c01);
  c[2] = static_cast<float>(c02); c[3] = static_cast<float>(c03);
  c[ldc + 0] = static_cast<float>(c10); c[ldc + 1] = static_cast<float>(c11);
  c[ldc + 2] = static_cast<float>(c12); c[ldc + 3] = static_cast<float>(c13);
}

// One element of A * B^T: a double sum in ascending k, from 0.0. A float x
// float product is exact in double.
float dot_double(const float* x, const float* y, std::size_t k) {
  double acc = 0.0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    acc += static_cast<double>(x[kk]) * y[kk];
  }
  return static_cast<float>(acc);
}
}  // namespace

void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n) {
  gemm({a, k, 1}, b, c, m, k, n);
}

tensor matmul(const tensor& a, const tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dims()[0];
  const std::size_t k = a.dims()[1];
  ADVH_CHECK_MSG(b.dims()[0] == k, "inner dimensions must agree");
  const std::size_t n = b.dims()[1];

  tensor c(shape{m, n});
  matmul(a.data().data(), b.data().data(), c.data().data(), m, k, n);
  return c;
}

tensor matmul_at_b(const tensor& a, const tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dims()[0];
  const std::size_t k = a.dims()[1];
  ADVH_CHECK_MSG(b.dims()[0] == m, "outer dimensions must agree");
  const std::size_t n = b.dims()[1];

  // Each element of C sums over the m rows in ascending order, in float,
  // from +0.
  tensor c(shape{k, n});
  gemm({a.data().data(), 1, k}, b.data().data(), c.data().data(), k, m, n);
  return c;
}

tensor matmul_a_bt(const tensor& a, const tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dims()[0];
  const std::size_t k = a.dims()[1];
  ADVH_CHECK_MSG(b.dims()[1] == k, "inner dimensions must agree");
  const std::size_t n = b.dims()[0];

  tensor c(shape{m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // 2x4 blocks keep eight sums in flight; the rows and columns they leave,
  // all of a batch-1 linear layer's outputs among them, take one at a time.
  const std::size_t mb = m - m % 2;
  const std::size_t nb = n - n % 4;
  for (std::size_t i = 0; i < mb; i += 2) {
    for (std::size_t j = 0; j < nb; j += 4) {
      block_2x4_double(pa + i * k, pb + j * k, k, pc + i * n + j, n);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i < mb ? nb : 0; j < n; ++j) {
      pc[i * n + j] = dot_double(pa + i * k, pb + j * k, k);
    }
  }
  return c;
}

}  // namespace advh::ops
