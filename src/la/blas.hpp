// Hand-written BLAS-like kernels (substitute for the paper's ESSL).
//
// Only the shapes HOOI needs are provided: tall-skinny GEMM/GEMV with small
// inner dimensions (ranks R <= ~16, Kronecker widths <= ~10^3). gemm blocks
// for cache and parallelizes over rows with OpenMP when profitable.
#pragma once

#include <cstddef>
#include <span>

#include "la/matrix.hpp"

namespace ht::la {

/// Dot product.
double dot(std::span<const double> x, std::span<const double> y);

/// Euclidean norm.
double nrm2(std::span<const double> x);

// The level-1 kernels above parallelize over entries once the vector
// crosses an OpenMP-worthwhile size; they sit on the Lanczos /
// orthogonalization hot path where row-space vectors have one entry per
// tensor slice. Every reduction (dot, nrm2, gemv_t, gemm_tn) sums
// fixed-size blocks in block order, so results are bitwise identical for
// any thread count and with set_blas_threading(false).

/// y = A * x (A: m x n row-major).
void gemv(const Matrix& a, std::span<const double> x, std::span<double> y);

/// y = A^T * x (A: m x n row-major; y has size n).
void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> y);

/// C = A * B.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-owned output (resized, capacity preserved). The
/// blocked TRSVD solvers call this once per block apply, reusing one buffer
/// across iterations.
///
/// gemm_into and gemm_tn_into stream a tall A through register-tiled
/// kernels when B has at most 16 columns (the TRSVD block shapes). Each
/// output entry sums its products in the order of the plain loops, so the
/// bits do not depend on which kernel ran.
void gemm_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B (A: m x k -> C: k x n). The HOOI core-tensor step
/// G(N) = U_N^T Y(N) is this shape.
Matrix gemm_tn(const Matrix& a, const Matrix& b);

/// C = A^T * B into a caller-owned output (resized, capacity preserved).
void gemm_tn_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T.
Matrix gemm_nt(const Matrix& a, const Matrix& b);

/// Enable/disable OpenMP inside gemm/gemv (tests exercise both paths).
void set_blas_threading(bool enabled);
bool blas_threading();

}  // namespace ht::la
