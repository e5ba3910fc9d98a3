// Backing-store abstraction of the storage layer.
//
// An Arena is a contiguous, immutable block of bytes with shared ownership:
// the memory a read-only data structure's views point into. Two kinds exist
// today — HeapArena (bytes read into malloc'd memory) and MappedFile (bytes
// mmap'd straight from disk, see mapped_file.hpp) — and every zero-copy
// container (storage::Span<T>, and through it la::Matrix, tensor::CooTensor,
// tensor::DenseTensor) keeps its backing arena alive via
// shared_ptr, so a loaded model bundle stays valid for exactly as long as
// any structure still references it.
//
// Thread-safety: arenas are immutable after construction and may be shared
// by any number of concurrent readers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ht::storage {

class Arena {
 public:
  virtual ~Arena() = default;

  /// First byte of the block (nullptr iff size() == 0).
  [[nodiscard]] virtual const std::byte* data() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// True when the bytes live in ordinary process memory (heap), false when
  /// they are demand-paged from a file (mmap) and may fault on first touch.
  [[nodiscard]] virtual bool resident() const = 0;

  /// Human-readable origin ("heap", or the mapped file's path).
  [[nodiscard]] virtual std::string origin() const = 0;
};

using ArenaPtr = std::shared_ptr<const Arena>;

/// Arena over process-heap bytes; used when a bundle is loaded in copy mode
/// (LoadMode::kCopy) or on platforms without mmap.
class HeapArena final : public Arena {
 public:
  HeapArena() = default;
  explicit HeapArena(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::byte* data() const override {
    return bytes_.data();
  }
  [[nodiscard]] std::size_t size() const override { return bytes_.size(); }
  [[nodiscard]] bool resident() const override { return true; }
  [[nodiscard]] std::string origin() const override { return "heap"; }

  [[nodiscard]] std::vector<std::byte>& bytes() { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

/// Test hook counting per-entry payload copies performed by the storage
/// layer's *load* paths (bundle section materialization and view
/// detachment). The zero-copy acceptance test resets the counters, loads a
/// bundle via mmap, and asserts nothing was copied for the factor/core/CSF
/// sections; small metadata (header, section table, dims/ranks, level maps)
/// is deliberately not counted — zero-copy is a statement about the O(nnz)
/// and O(I*R) arrays, not the O(order) ones.
struct CopyStats {
  /// Payload bytes copied into heap-owned storage.
  static std::atomic<std::uint64_t> bytes_copied;
  /// Number of distinct array copies.
  static std::atomic<std::uint64_t> copies;

  static void reset() {
    bytes_copied.store(0, std::memory_order_relaxed);
    copies.store(0, std::memory_order_relaxed);
  }
  static void record(std::size_t bytes) {
    bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t bytes() {
    return bytes_copied.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t count() {
    return copies.load(std::memory_order_relaxed);
  }
};

}  // namespace ht::storage
