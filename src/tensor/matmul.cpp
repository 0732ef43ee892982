#include "tensor/matmul.hpp"

#include "common/error.hpp"

namespace advh::ops {

namespace {
void check_rank2(const tensor& t, const char* name) {
  ADVH_CHECK_MSG(t.dims().rank() == 2, std::string(name) + " must be rank 2");
}

constexpr std::size_t kRows = 4;  // rows of C per register block
constexpr std::size_t kCols = 8;  // columns of C per register block

// C[0:4, 0:8] = A[0:4, 0:k] * B[0:k, 0:8]. Written with 32 scalar
// accumulators so that GCC's SLP pass keeps them in vector registers at -O2;
// an accumulator array spills to the stack instead.
void block_4x8(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, std::size_t k, float* c, std::size_t ldc) {
  float c00{}, c01{}, c02{}, c03{}, c04{}, c05{}, c06{}, c07{};
  float c10{}, c11{}, c12{}, c13{}, c14{}, c15{}, c16{}, c17{};
  float c20{}, c21{}, c22{}, c23{}, c24{}, c25{}, c26{}, c27{};
  float c30{}, c31{}, c32{}, c33{}, c34{}, c35{}, c36{}, c37{};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    const float b0 = br[0], b1 = br[1], b2 = br[2], b3 = br[3];
    const float b4 = br[4], b5 = br[5], b6 = br[6], b7 = br[7];
    const float a0 = a[kk], a1 = a[lda + kk], a2 = a[2 * lda + kk],
                a3 = a[3 * lda + kk];
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

// Any block of C the 4x8 kernel does not cover, one element at a time.
void block_edge(const float* a, std::size_t lda, const float* b,
                std::size_t ldb, std::size_t k, float* c, std::size_t ldc,
                std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}
}  // namespace

// Every element of C sums its products in ascending k, in float, from +0:
// the order of the plain ikj loop this replaces, so results are bit for bit
// the same. That loop skipped zero entries of A; the skip is exact for
// finite operands and is gone. A round-to-nearest sum is -0 only when both
// addends are -0, so an accumulator that starts at +0 is never -0, and
// adding a +-0 product leaves it unchanged.
void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n) {
  // Column panels outermost: every row block of A passes over the same
  // k x 8 panel of B before the next one is touched.
  std::size_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    std::size_t i = 0;
    for (; i + kRows <= m; i += kRows) {
      block_4x8(a + i * k, k, b + j, n, k, c + i * n + j, n);
    }
    block_edge(a + i * k, k, b + j, n, k, c + i * n + j, n, m - i, kCols);
  }
  block_edge(a, k, b + j, n, k, c + j, n, m, n - j);
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

  tensor c(shape{k, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* crow = pc + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
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
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * brow[kk];
      }
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

}  // namespace advh::ops
