// Simulated message-passing communicator (MPI substitute; see
// docs/ARCHITECTURE.md, "Substitutions").
//
// SPMD ranks run as threads inside one process. The Communicator gives each
// rank MPI-like point-to-point send/recv with (source, tag) matching plus
// the collectives the HOOI algorithms need. Sends are buffered (copy-in,
// never block); receives block until a matching message arrives. Collectives
// exchange data through shared slots guarded by a generation barrier and
// reduce in rank order, so every rank observes bit-identical results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "smp/comm_stats.hpp"
#include "util/error.hpp"

namespace ht::smp {

class World;

/// Per-rank communicator handle. Not thread-safe within a rank (each rank is
/// one thread, as in MPI).
class Communicator {
 public:
  Communicator(World& world, int rank);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  // -- point to point ------------------------------------------------------

  /// Buffered send; returns immediately.
  void send_bytes(int dst, int tag, std::span<const std::byte> payload);

  /// Blocking receive matching (src, tag); FIFO per (src, tag) channel.
  std::vector<std::byte> recv_bytes(int src, int tag);

  template <typename T>
  void send(int dst, int tag, std::span<const T> payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag,
               std::as_bytes(std::span<const T>(payload.data(), payload.size())));
  }

  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(src, tag);
    HT_CHECK_MSG(raw.size() % sizeof(T) == 0, "payload size mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  // -- collectives ----------------------------------------------------------

  /// Synchronize all ranks.
  void barrier();

  /// Elementwise sum of equally sized vectors; result identical on all ranks.
  void allreduce_sum(std::span<double> inout);

  /// Max reduction of a scalar.
  double allreduce_max(double value);

  /// Sum reduction of a scalar.
  double allreduce_sum_scalar(double value);

  /// Concatenate per-rank blocks in rank order (blocks may differ in size).
  std::vector<double> allgatherv(std::span<const double> local);

  // -- instrumentation -------------------------------------------------------

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  friend class World;

  /// combine(...combine(init, v_0)..., v_{p-1}) over every rank's value.
  template <typename T, typename Combine>
  T reduce_scalar(T value, T init, Combine combine);

  World& world_;
  int rank_;
  CommStats stats_;
};

/// Optional network cost model: every transfer charges the participating
/// rank latency + bytes/bandwidth of wall time (busy-wait). Defaults to
/// free/instant, which measures pure computation; the strong-scaling bench
/// enables BlueGene/Q-like parameters so communication volume costs time
/// the way it does on the paper's machine. Configured from the environment:
///   HT_NET_LATENCY_US  per-message latency in microseconds (default 0)
///   HT_NET_GBPS        link bandwidth in GB/s (default 0 = infinite)
struct NetworkModel {
  double latency_ns = 0.0;
  double ns_per_byte = 0.0;

  static NetworkModel from_env();
  [[nodiscard]] bool enabled() const {
    return latency_ns > 0.0 || ns_per_byte > 0.0;
  }
};

/// Shared state for one SPMD execution: mailboxes, collective slots, barrier.
class World {
 public:
  explicit World(int size);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Wake every blocked rank with an error; used when one rank throws so the
  /// others do not deadlock in recv()/barrier().
  void request_abort();

 private:
  friend class Communicator;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    // (src, tag) -> FIFO of payloads
    std::map<std::pair<int, int>, std::deque<std::vector<std::byte>>> queues;
  };

  void deposit(int dst, int src, int tag, std::vector<std::byte> payload);
  std::vector<std::byte> collect(int dst, int src, int tag);

  /// Busy-wait for the modeled transfer time of `bytes` (no-op when the
  /// model is disabled).
  void charge_transfer(std::size_t bytes) const;

  // Two-phase generation barrier used by collectives: publish -> sync ->
  // consume -> sync, so slots can be reused safely.
  void sync();

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Collective exchange slots (one pointer-sized slot per rank).
  std::vector<const void*> slots_;
  std::vector<std::size_t> slot_sizes_;

  // Centralized generation barrier. Spinning (with yield backoff) instead
  // of mutex+condvar: the HOOI TRSVD issues hundreds of collectives per
  // iteration and wakeup latency would otherwise dominate the simulation.
  std::atomic<int> barrier_arrived_{0};
  std::atomic<std::uint64_t> barrier_generation_{0};

  std::atomic<bool> aborted_{false};

  NetworkModel network_ = NetworkModel::from_env();
};

/// Run `body(comm)` on `nranks` threads, SPMD style. Exceptions thrown by any
/// rank are captured and the first one is rethrown after all ranks join.
void run_spmd(int nranks, const std::function<void(Communicator&)>& body);

}  // namespace ht::smp
