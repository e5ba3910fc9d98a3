#include "smp/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/env.hpp"

namespace ht::smp {

NetworkModel NetworkModel::from_env() {
  NetworkModel m;
  m.latency_ns = env_double("HT_NET_LATENCY_US", 0.0) * 1e3;
  const double gbps = env_double("HT_NET_GBPS", 0.0);
  m.ns_per_byte = gbps > 0.0 ? 1.0 / gbps : 0.0;
  return m;
}

// ---------------------------------------------------------------- World

World::World(int size) : size_(size) {
  HT_CHECK_MSG(size >= 1, "world size must be >= 1");
  mailboxes_.reserve(size);
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  slots_.assign(size, nullptr);
  slot_sizes_.assign(size, 0);
}

World::~World() = default;

void World::request_abort() {
  aborted_.store(true);
  for (auto& box : mailboxes_) {
    const std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
  // Barrier waiters poll aborted_ while spinning; no wakeup needed.
}

void World::charge_transfer(std::size_t bytes) const {
  if (!network_.enabled()) return;
  const auto wait = std::chrono::nanoseconds(static_cast<std::int64_t>(
      network_.latency_ns + network_.ns_per_byte * static_cast<double>(bytes)));
  const auto deadline = std::chrono::steady_clock::now() + wait;
  while (std::chrono::steady_clock::now() < deadline) {
    // Busy-wait: rank threads model dedicated nodes.
  }
}

void World::deposit(int dst, int src, int tag, std::vector<std::byte> payload) {
  Mailbox& box = *mailboxes_[dst];
  {
    const std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{src, tag}].push_back(std::move(payload));
  }
  box.cv.notify_all();
}

std::vector<std::byte> World::collect(int dst, int src, int tag) {
  Mailbox& box = *mailboxes_[dst];
  std::unique_lock<std::mutex> lock(box.mutex);
  box.cv.wait(lock, [&] {
    if (aborted_.load()) return true;
    auto it = box.queues.find({src, tag});
    return it != box.queues.end() && !it->second.empty();
  });
  if (aborted_.load()) {
    auto it = box.queues.find({src, tag});
    if (it == box.queues.end() || it->second.empty()) {
      throw Error("smp: world aborted while receiving");
    }
  }
  auto it = box.queues.find({src, tag});
  std::vector<std::byte> payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

void World::sync() {
  // SPMD discipline guarantees every rank enters each barrier epoch exactly
  // once, so reading the generation before arriving is race-free: the epoch
  // cannot complete without this rank's arrival.
  const std::uint64_t gen = barrier_generation_.load(std::memory_order_acquire);
  if (barrier_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_) {
    barrier_arrived_.store(0, std::memory_order_relaxed);
    barrier_generation_.fetch_add(1, std::memory_order_release);
    return;
  }
  int spins = 0;
  while (barrier_generation_.load(std::memory_order_acquire) == gen) {
    if (aborted_.load(std::memory_order_relaxed)) {
      throw Error("smp: world aborted at barrier");
    }
    if (++spins > 1024) {
      std::this_thread::yield();
    }
  }
}

// ---------------------------------------------------------------- Communicator

Communicator::Communicator(World& world, int rank)
    : world_(world), rank_(rank) {
  HT_CHECK(rank >= 0 && rank < world.size());
}

int Communicator::size() const { return world_.size(); }

void Communicator::send_bytes(int dst, int tag,
                              std::span<const std::byte> payload) {
  HT_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  stats_.bytes_sent += payload.size();
  ++stats_.messages_sent;
  world_.charge_transfer(payload.size());
  world_.deposit(dst, rank_, tag,
                 std::vector<std::byte>(payload.begin(), payload.end()));
}

std::vector<std::byte> Communicator::recv_bytes(int src, int tag) {
  HT_CHECK_MSG(src >= 0 && src < size(), "recv from invalid rank " << src);
  std::vector<std::byte> payload = world_.collect(rank_, src, tag);
  stats_.bytes_received += payload.size();
  return payload;
}

void Communicator::barrier() {
  ++stats_.collectives;
  world_.sync();
}

void Communicator::allreduce_sum(std::span<double> inout) {
  const int p = size();
  ++stats_.collectives;
  if (p == 1) return;

  world_.slots_[rank_] = inout.data();
  world_.slot_sizes_[rank_] = inout.size();
  world_.sync();

  // Reduce in rank order: bit-identical result on every rank.
  std::vector<double> acc(inout.size(), 0.0);
  for (int r = 0; r < p; ++r) {
    HT_CHECK_MSG(world_.slot_sizes_[r] == inout.size(),
                 "allreduce size mismatch at rank " << r);
    const auto* src = static_cast<const double*>(world_.slots_[r]);
    for (std::size_t i = 0; i < inout.size(); ++i) acc[i] += src[i];
  }
  world_.sync();  // all ranks done reading the slots
  std::memcpy(inout.data(), acc.data(), inout.size() * sizeof(double));

  // Ring-model volume: reduce-scatter + allgather each move n(p-1)/p.
  const std::uint64_t v = 2 * inout.size() * sizeof(double) *
                          static_cast<unsigned>(p - 1) /
                          static_cast<unsigned>(p);
  stats_.bytes_sent += v;
  stats_.bytes_received += v;
  world_.charge_transfer(v);
  world_.sync();  // slots reusable
}

template <typename T, typename Combine>
T Communicator::reduce_scalar(T value, T init, Combine combine) {
  ++stats_.collectives;
  const int p = size();
  if (p == 1) return value;
  world_.slots_[rank_] = &value;
  world_.sync();
  T acc = init;
  for (int r = 0; r < p; ++r) {
    acc = combine(acc, *static_cast<const T*>(world_.slots_[r]));
  }
  world_.sync();
  stats_.bytes_sent += sizeof(T);
  stats_.bytes_received += sizeof(T);
  world_.charge_transfer(sizeof(T));
  world_.sync();
  return acc;
}

double Communicator::allreduce_max(double value) {
  return reduce_scalar(value, value,
                       [](double a, double b) { return std::max(a, b); });
}

std::uint64_t Communicator::allreduce_max_u64(std::uint64_t value) {
  return reduce_scalar(value, value, [](std::uint64_t a, std::uint64_t b) {
    return std::max(a, b);
  });
}

double Communicator::allreduce_sum_scalar(double value) {
  return reduce_scalar(value, 0.0, [](double a, double b) { return a + b; });
}

std::vector<double> Communicator::allgatherv(std::span<const double> local) {
  ++stats_.collectives;
  const int p = size();
  if (p == 1) return {local.begin(), local.end()};

  world_.slots_[rank_] = local.data();
  world_.slot_sizes_[rank_] = local.size();
  world_.sync();

  std::size_t total = 0;
  for (int r = 0; r < p; ++r) total += world_.slot_sizes_[r];
  std::vector<double> out;
  out.reserve(total);
  for (int r = 0; r < p; ++r) {
    const auto* src = static_cast<const double*>(world_.slots_[r]);
    out.insert(out.end(), src, src + world_.slot_sizes_[r]);
  }
  world_.sync();

  const std::uint64_t v = (total - local.size()) * sizeof(double);
  stats_.bytes_sent += v;
  stats_.bytes_received += v;
  world_.charge_transfer(v);
  world_.sync();
  return out;
}

}  // namespace ht::smp
