// Hot-swapping model handle: epoch-versioned RCU publication of ServeModel
// snapshots, with an optional background thread that watches a bundle path
// and republishes when the file changes.
//
// Swap protocol (reader side is wait-free in the RCU sense):
//   - readers call snapshot() and get a shared_ptr<const ServeModel>; they
//     keep querying that snapshot for as long as they hold the pointer —
//     a concurrent publish never mutates it (ServeModel is immutable), so
//     no query ever observes a torn model.
//   - publish() atomically replaces the current pointer under a mutex held
//     for the pointer swap only, and bumps the epoch. The OLD model — and
//     through it the old bundle's storage arena / file mapping — stays
//     alive until the last in-flight reader drops its shared_ptr, at which
//     point the mapping is unmapped by the arena's destructor.
//   - the watcher thread polls stat(2) (mtime+size+inode) at the reload
//     interval. When the file changes it loads the new bundle (kMap),
//     validates it — full payload checksums via verify_all, then shape
//     checks against the live model (same order; provenance present) —
//     and publishes. A bundle that fails to load or validate is REJECTED:
//     the old model keeps serving and last_error() records why. Bundle
//     writes are atomic (tmp + rename), so a half-written file is never
//     observed as a valid bundle.
//
// This is the first long-lived shared mutable state in the codebase; the
// CI ThreadSanitizer job runs the serve tests against exactly this class.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/serve_model.hpp"

namespace ht::serve {

/// Longest watcher poll interval: past about 9.2e9 s the wait's conversion
/// to the clock's nanosecond count overflows, and the watcher would poll
/// without waiting.
inline constexpr double kMaxWatchIntervalSeconds = 1e9;

class ModelHandle {
 public:
  ModelHandle() = default;
  /// Convenience: load + publish an initial model (verify on).
  explicit ModelHandle(const std::string& path) { load_and_publish(path); }
  ~ModelHandle() { stop_watch(); }

  ModelHandle(const ModelHandle&) = delete;
  ModelHandle& operator=(const ModelHandle&) = delete;

  /// Current model (nullptr before the first publish). The returned
  /// snapshot stays valid — and keeps its bundle mapping alive — for as
  /// long as the caller holds it, across any number of concurrent swaps.
  [[nodiscard]] std::shared_ptr<const ServeModel> snapshot() const;

  /// Monotonic publication count (0 before the first publish).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Atomically publish a new model and bump the epoch.
  void publish(std::shared_ptr<const ServeModel> model);

  /// Load `path` (mmap), validate (verify_all + shape checks against the
  /// live model when one exists), publish. Throws ht::Error on failure —
  /// the current model is left untouched.
  void load_and_publish(const std::string& path, bool verify = true);

  /// Start the background watcher on `path`. Polls every `interval_s`
  /// seconds; a change triggers load_and_publish, and a failed reload
  /// keeps the old model (see last_error()). No-op if already watching.
  /// Throws ht::InvalidArgument, starting no thread, for an interval
  /// outside (0, kMaxWatchIntervalSeconds].
  void start_watch(const std::string& path, double interval_s,
                   bool verify = true);
  void stop_watch();
  [[nodiscard]] bool watching() const { return watcher_.joinable(); }

  /// Most recent reload failure ("" when the last reload succeeded).
  [[nodiscard]] std::string last_error() const;
  /// Successful background reloads performed by the watcher.
  [[nodiscard]] std::uint64_t reloads() const {
    return reloads_.load(std::memory_order_relaxed);
  }

 private:
  struct FileSig {
    std::int64_t mtime_ns = -1;
    std::uint64_t size = 0;
    std::uint64_t inode = 0;
    bool operator==(const FileSig&) const = default;
  };
  static FileSig file_signature(const std::string& path);

  void watch_loop(std::string path, double interval_s, bool verify,
                  FileSig last);
  void validate_against_current(const ServeModel& incoming) const;

  mutable std::mutex mutex_;           // guards model_ and last_error_
  std::shared_ptr<const ServeModel> model_;
  std::string last_error_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> reloads_{0};

  std::thread watcher_;
  std::mutex watch_mutex_;             // guards stop_ + cv for the watcher
  std::condition_variable watch_cv_;
  bool stop_ = false;
};

}  // namespace ht::serve
