// Matrix multiplication kernels.
//
// Convolutions lower to GEMM via im2col, so this is the hot path of both
// training and the instrumented inference used for HPC trace generation.
#pragma once

#include "tensor/tensor.hpp"

namespace advh::ops {

/// C = A(m,k) * B(k,n); both rank-2.
tensor matmul(const tensor& a, const tensor& b);

/// The same product over raw row-major storage: c (m x n) is overwritten.
void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n);

/// C = A^T(m,k) * B(m,n) -> (k,n).
tensor matmul_at_b(const tensor& a, const tensor& b);

/// C = A(m,k) * B^T(n,k) -> (m,n).
tensor matmul_a_bt(const tensor& a, const tensor& b);

}  // namespace advh::ops
