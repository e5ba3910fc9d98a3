// Matrix-free operator interface for the truncated SVD solvers.
//
// This is the seam that makes the paper's distributed TRSVD work: the
// Lanczos bidiagonalization below only ever touches the matricized TTMc
// result Y(n) through
//   u = A v        (MxV)
//   v = A^T u      (MTxV)
//   dot(u_a, u_b)  (row-space inner product)
// In shared memory these are plain dense kernels; in the fine-grain
// distributed setting apply() folds partial row sums to row owners, and
// apply_transpose() expands owner entries back to replicas and reduces the
// (small, replicated) column-space vector — without ever assembling Y(n).
//
// The blocked solvers (randomized subspace iteration, HOOI's warm power
// steps) use the *_block entry points, which carry b vectors per
// application: the dense operator turns the bandwidth-bound gemv stream
// into gemm, and the distributed operator batches the fold/expand exchange
// into one message round per block instead of b latency-bound rounds. The defaults loop the
// scalar applies, so every operator supports the blocked solvers; overriding
// is purely a performance contract (the backend-equivalence tests pin
// block apply == repeated scalar apply).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace ht::la {

class TrsvdOperator {
 public:
  virtual ~TrsvdOperator() = default;

  /// Length of (local part of) row-space vectors u.
  [[nodiscard]] virtual std::size_t row_local_size() const = 0;

  /// Length of column-space vectors v (replicated everywhere in the
  /// distributed setting; prod of ranks for HOOI).
  [[nodiscard]] virtual std::size_t col_size() const = 0;

  /// u = A v. `v` has col_size() entries, `u` row_local_size() entries.
  virtual void apply(std::span<const double> v, std::span<double> u) = 0;

  /// v = A^T u. Must produce a globally consistent v on every rank.
  virtual void apply_transpose(std::span<const double> u,
                               std::span<double> v) = 0;

  /// Row-space inner product; globally reduced in distributed settings.
  [[nodiscard]] virtual double row_dot(std::span<const double> a,
                                       std::span<const double> b) const {
    return dot(a, b);
  }

  /// Global number of rows (for rank validation); defaults to local size.
  [[nodiscard]] virtual std::size_t row_global_size() const {
    return row_local_size();
  }

  // -- block interface -------------------------------------------------------

  /// U = A V for a block of b column-space vectors: V is col_size() x b
  /// (vectors are columns), U is resized to row_local_size() x b. Default
  /// loops apply() column by column.
  virtual void apply_block(const Matrix& v, Matrix& u) {
    HT_CHECK_MSG(v.rows() == col_size(), "apply_block column-space mismatch");
    const std::size_t b = v.cols();
    u.resize(row_local_size(), b);
    std::vector<double> vj(col_size()), uj(row_local_size());
    for (std::size_t j = 0; j < b; ++j) {
      for (std::size_t i = 0; i < v.rows(); ++i) vj[i] = v(i, j);
      apply(vj, uj);
      for (std::size_t i = 0; i < uj.size(); ++i) u(i, j) = uj[i];
    }
  }

  /// V = A^T U for a block of b row-space vectors: U is row_local_size() x b,
  /// V is resized to col_size() x b and globally consistent on every rank.
  /// Default loops apply_transpose() column by column.
  virtual void apply_transpose_block(const Matrix& u, Matrix& v) {
    HT_CHECK_MSG(u.rows() == row_local_size(),
                 "apply_transpose_block row-space mismatch");
    const std::size_t b = u.cols();
    v.resize(col_size(), b);
    std::vector<double> uj(row_local_size()), vj(col_size());
    for (std::size_t j = 0; j < b; ++j) {
      for (std::size_t i = 0; i < u.rows(); ++i) uj[i] = u(i, j);
      apply_transpose(uj, vj);
      for (std::size_t i = 0; i < vj.size(); ++i) v(i, j) = vj[i];
    }
  }

  /// G = A_blk^T B_blk for row-space blocks (row_local_size() x a / x b):
  /// the Gram/cross-Gram the blocked solvers orthonormalize with. Must count
  /// every *global* row exactly once and produce an identical G on every
  /// rank. Default assumes local rows == global rows (shared memory).
  virtual void row_gram(const Matrix& a, const Matrix& b, Matrix& g) {
    gemm_tn_into(a, b, g);
  }

 protected:
  TrsvdOperator() = default;
};

/// Shared-memory operator over an explicit dense row-major matrix.
class DenseOperator final : public TrsvdOperator {
 public:
  explicit DenseOperator(const Matrix& a) : a_(a) {}

  [[nodiscard]] std::size_t row_local_size() const override { return a_.rows(); }
  [[nodiscard]] std::size_t col_size() const override { return a_.cols(); }

  void apply(std::span<const double> v, std::span<double> u) override {
    gemv(a_, v, u);
  }
  void apply_transpose(std::span<const double> u,
                       std::span<double> v) override {
    gemv_t(a_, u, v);
  }

  // Block applies are single gemm passes over A: ~b times the flops of a
  // gemv for the same memory traffic, which is the whole point of the
  // blocked TRSVD backends in the bandwidth-bound HOOI regime.
  void apply_block(const Matrix& v, Matrix& u) override {
    gemm_into(a_, v, u);
  }
  void apply_transpose_block(const Matrix& u, Matrix& v) override {
    gemm_tn_into(a_, u, v);
  }

 private:
  const Matrix& a_;
};

}  // namespace ht::la
