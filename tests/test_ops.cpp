#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "tensor/matmul.hpp"

namespace advh::ops {
namespace {

tensor make(std::initializer_list<float> values) {
  std::vector<float> v(values);
  return tensor(shape{v.size()}, v);
}

TEST(Ops, AddSubMul) {
  tensor a = make({1.0f, 2.0f, 3.0f});
  tensor b = make({4.0f, 5.0f, 6.0f});
  EXPECT_EQ(add(a, b)[1], 7.0f);
  EXPECT_EQ(sub(b, a)[2], 3.0f);
  EXPECT_EQ(mul(a, b)[0], 4.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  tensor a(shape{2});
  tensor b(shape{3});
  EXPECT_THROW(add(a, b), shape_error);
}

TEST(Ops, ScaleAndAxpy) {
  tensor a = make({1.0f, -2.0f});
  EXPECT_EQ(scale(a, 3.0f)[1], -6.0f);
  tensor b = make({10.0f, 10.0f});
  axpy(b, a, 0.5f);
  EXPECT_EQ(b[0], 10.5f);
  EXPECT_EQ(b[1], 9.0f);
}

TEST(Ops, SignTernary) {
  tensor a = make({-3.0f, 0.0f, 2.0f});
  tensor s = sign(a);
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 0.0f);
  EXPECT_EQ(s[2], 1.0f);
}

TEST(Ops, ClampBounds) {
  tensor a = make({-2.0f, 0.5f, 3.0f});
  tensor c = clamp(a, 0.0f, 1.0f);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 0.5f);
  EXPECT_EQ(c[2], 1.0f);
}

TEST(Ops, ProjectLinfIsTightestBox) {
  tensor center = make({0.5f, 0.5f});
  tensor a = make({0.9f, 0.2f});
  tensor p = project_linf(a, center, 0.1f);
  EXPECT_FLOAT_EQ(p[0], 0.6f);
  EXPECT_FLOAT_EQ(p[1], 0.4f);
}

TEST(Ops, ProjectLinfIdentityInsideBall) {
  tensor center = make({0.0f, 0.0f});
  tensor a = make({0.05f, -0.03f});
  tensor p = project_linf(a, center, 0.1f);
  EXPECT_FLOAT_EQ(p[0], 0.05f);
  EXPECT_FLOAT_EQ(p[1], -0.03f);
}

TEST(Ops, Reductions) {
  tensor a = make({1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(sum(a), 10.0);
  EXPECT_DOUBLE_EQ(mean(a), 2.5);
  EXPECT_DOUBLE_EQ(l2_norm(a), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(linf_norm(make({-5.0f, 3.0f})), 5.0);
}

TEST(Ops, DotProduct) {
  tensor a = make({1.0f, 2.0f});
  tensor b = make({3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
}

TEST(Ops, ArgmaxFirstOnTies) {
  tensor a = make({1.0f, 5.0f, 5.0f, 2.0f});
  EXPECT_EQ(argmax(a), 1u);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  tensor logits(shape{2, 3}, std::vector<float>{1.0f, 2.0f, 3.0f,
                                                -1.0f, 0.0f, 1.0f});
  tensor p = softmax_rows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 3; ++c) s += p.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-6);
  }
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(Ops, SoftmaxNumericallyStable) {
  tensor logits(shape{1, 2}, std::vector<float>{1000.0f, 1000.0f});
  tensor p = softmax_rows(logits);
  EXPECT_NEAR(p[0], 0.5, 1e-6);
  EXPECT_NEAR(p[1], 0.5, 1e-6);
}

TEST(Ops, ArgmaxRows) {
  tensor logits(shape{2, 3}, std::vector<float>{1.0f, 9.0f, 2.0f,
                                                7.0f, 1.0f, 2.0f});
  const auto rows = argmax_rows(logits);
  EXPECT_EQ(rows[0], 1u);
  EXPECT_EQ(rows[1], 0u);
}

TEST(Ops, CountGreater) {
  tensor a = make({0.0f, 0.5f, 1.5f, -1.0f});
  EXPECT_EQ(count_greater(a, 0.0f), 2u);
}

TEST(Matmul, KnownProduct) {
  tensor a(shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  tensor b(shape{3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  tensor c = matmul(a, b);
  EXPECT_EQ(c.dims(), shape({2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  tensor a(shape{2, 3});
  tensor b(shape{2, 2});
  EXPECT_THROW(matmul(a, b), invariant_error);
}

TEST(Matmul, TransposedVariantsAgree) {
  rng gen(1);
  tensor a = tensor::randn(shape{4, 6}, gen);
  tensor b = tensor::randn(shape{4, 5}, gen);
  // a^T b via matmul_at_b must equal manual transpose + matmul.
  tensor at(shape{6, 4});
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j) at.at(j, i) = a.at(i, j);
  tensor expected = matmul(at, b);
  tensor got = matmul_at_b(a, b);
  for (std::size_t i = 0; i < expected.numel(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-4);
  }
}

TEST(Matmul, ABTransposedAgrees) {
  rng gen(2);
  tensor a = tensor::randn(shape{3, 7}, gen);
  tensor b = tensor::randn(shape{5, 7}, gen);
  tensor bt(shape{7, 5});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j) bt.at(j, i) = b.at(i, j);
  tensor expected = matmul(a, bt);
  tensor got = matmul_a_bt(a, b);
  for (std::size_t i = 0; i < expected.numel(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-4);
  }
}

TEST(Matmul, SparseInputFastPathCorrect) {
  // Zero entries in A contribute nothing; result must match dense math.
  tensor a(shape{2, 3}, std::vector<float>{0.0f, 2.0f, 0.0f,
                                           1.0f, 0.0f, 3.0f});
  tensor b(shape{3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 16.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 20.0f);
}

/// Each element of C sums its products in ascending k, in float, from +0.
tensor ascending_k_matmul(const tensor& a, const tensor& b) {
  const std::size_t m = a.dims()[0], k = a.dims()[1], n = b.dims()[1];
  tensor c(shape{m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a.data()[i * k + kk] * b.data()[kk * n + j];
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

/// A^T(m,k) * B(m,n): each element sums over the m rows in ascending order,
/// in float, from +0.
tensor ascending_i_matmul_at_b(const tensor& a, const tensor& b) {
  const std::size_t m = a.dims()[0], k = a.dims()[1], n = b.dims()[1];
  tensor c(shape{k, n});
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < m; ++i) {
        acc += a.data()[i * k + r] * b.data()[i * n + j];
      }
      c.data()[r * n + j] = acc;
    }
  }
  return c;
}

/// A(m,k) * B^T(n,k): each element is one double sum in ascending k, from
/// 0.0, rounded to float once.
tensor double_matmul_a_bt(const tensor& a, const tensor& b) {
  const std::size_t m = a.dims()[0], k = a.dims()[1], n = b.dims()[0];
  tensor c(shape{m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.data()[i * k + kk]) * b.data()[j * k + kk];
      }
      c.data()[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Matmul, BlockedKernelMatchesAscendingKReferenceBitForBit) {
  // Ragged shapes hit the 4x8, 2x8 and 1x8 register blocks, their column
  // edge and the scalar tail. Half-zero operands (with negative entries, so
  // some products are -0) check that no zero-skip is needed for exactness.
  rng gen(11);
  for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 9, 13, 15}) {
    for (std::size_t k : {1, 7, 72}) {
      for (std::size_t n : {1, 7, 8, 9, 33}) {
        for (bool half_zero : {false, true}) {
          tensor a = tensor::randn(shape{m, k}, gen);
          tensor b = tensor::randn(shape{k, n}, gen);
          if (half_zero) {
            for (float& v : a.data()) v = gen.bernoulli(0.5) ? 0.0f : v;
            for (float& v : b.data()) v = gen.bernoulli(0.5) ? 0.0f : v;
          }
          const tensor want = ascending_k_matmul(a, b);
          const tensor got = matmul(a, b);
          ASSERT_EQ(got.dims(), want.dims());
          EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                want.numel() * sizeof(float)),
                    0)
              << "m=" << m << " k=" << k << " n=" << n
              << " half_zero=" << half_zero;
        }
      }
    }
  }
}

TEST(Matmul, AtBMatchesAscendingReferenceBitForBit) {
  // C has k rows, so k walks the row blocks and row remainders of the
  // kernels, read down A's columns; m is the length of every sum.
  rng gen(12);
  for (std::size_t m : {1, 4, 7, 32}) {
    for (std::size_t k : {1, 2, 3, 4, 6, 7, 13, 15}) {
      for (std::size_t n : {1, 7, 8, 9, 33}) {
        for (bool half_zero : {false, true}) {
          tensor a = tensor::randn(shape{m, k}, gen);
          tensor b = tensor::randn(shape{m, n}, gen);
          if (half_zero) {
            for (float& v : a.data()) v = gen.bernoulli(0.5) ? 0.0f : v;
            for (float& v : b.data()) v = gen.bernoulli(0.5) ? 0.0f : v;
          }
          const tensor want = ascending_i_matmul_at_b(a, b);
          const tensor got = matmul_at_b(a, b);
          ASSERT_EQ(got.dims(), want.dims());
          EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                want.numel() * sizeof(float)),
                    0)
              << "m=" << m << " k=" << k << " n=" << n
              << " half_zero=" << half_zero;
        }
      }
    }
  }
}

TEST(Matmul, ABtMatchesDoubleReferenceBitForBit) {
  // 2x4 blocks of C, the row and columns they leave, and a single row (a
  // batch-1 linear layer).
  rng gen(13);
  for (std::size_t m : {1, 2, 3, 6, 13}) {
    for (std::size_t k : {1, 7, 72}) {
      for (std::size_t n : {1, 3, 4, 5, 9, 10}) {
        for (bool half_zero : {false, true}) {
          tensor a = tensor::randn(shape{m, k}, gen);
          tensor b = tensor::randn(shape{n, k}, gen);
          if (half_zero) {
            for (float& v : a.data()) v = gen.bernoulli(0.5) ? 0.0f : v;
            for (float& v : b.data()) v = gen.bernoulli(0.5) ? 0.0f : v;
          }
          const tensor want = double_matmul_a_bt(a, b);
          const tensor got = matmul_a_bt(a, b);
          ASSERT_EQ(got.dims(), want.dims());
          EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                want.numel() * sizeof(float)),
                    0)
              << "m=" << m << " k=" << k << " n=" << n
              << " half_zero=" << half_zero;
        }
      }
    }
  }
}

}  // namespace
}  // namespace advh::ops
