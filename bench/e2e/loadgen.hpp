// Loopback load generation against a real tuckerd process.
//
// The daemon is the shipped tools/tuckerd binary, spawned on an ephemeral
// port. Clients speak its line protocol over TCP and compare every response
// byte for byte against an answer precomputed in-process on the same
// bundle, so a wrong or missing answer is a counted failure, not a latency
// sample.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bench {

/// One request line (no newline) and the exact response it must receive.
struct Request {
  std::string line;
  std::string expected;
};

/// A tuckerd child process. The child gets PR_SET_PDEATHSIG, so it cannot
/// outlive the benchmark even if the benchmark is killed; the destructor
/// asks it to shut down, escalates to SIGKILL after a grace period, and
/// always reaps it.
class Daemon {
 public:
  /// Spawn `binary --model bundle --port 0 --print-port` and wait until it
  /// answers PING. Throws std::runtime_error when it does not come up.
  Daemon(const std::string& binary, const std::string& bundle);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Spawn to first PING answered, in seconds.
  [[nodiscard]] double ready_s() const { return ready_s_; }

  /// One request on a fresh connection; returns the response line.
  [[nodiscard]] std::string request(const std::string& line) const;

  /// SHUTDOWN, then wait for exit. True when the daemon exited with 0.
  bool shutdown();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double ready_s_ = 0.0;
};

struct OpenLoopResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;       // answered, but not the expected bytes
  /// Per request, from its due time to its answer; NaN when unanswered.
  std::vector<double> latency_us;
  std::vector<double> lag_us;      // how late each sent request went out
  double reload_ms = 0.0;          // RELOAD round trip on its own connection
  std::string reload_response;
  std::vector<std::string> mismatches;  // first few, for the log
};

/// Open loop: requests[i] is due at t0 + i / rate and is sent then, whatever
/// the daemon's state, by one spin-paced writer that alternates over
/// `connections` persistent connections, each drained by its own reader
/// thread. A RELOAD goes out on a separate connection `reload_at_s` after
/// t0 (none when `reload_at_s` is negative). Requests unanswered within
/// `drain_s` after the last send count as missing (sent - answered).
OpenLoopResult run_open_loop(int port, std::span<const Request> requests,
                             double rate, int connections, double reload_at_s,
                             double drain_s);

struct ClosedLoopResult {
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t missing = 0;
  /// Completions in each consecutive `window_s` interval from the start
  /// (all connections together); the last, partial window is dropped.
  std::vector<std::uint64_t> per_window;
  std::vector<std::string> mismatches;
};

/// Closed loop: `connections` client threads, each keeping `depth` requests
/// in flight (a new request is sent as each response arrives) for
/// `seconds`, cycling through `requests` from index `first` on (the
/// connections start evenly spaced after it).
ClosedLoopResult run_closed_loop(int port, std::span<const Request> requests,
                                 std::size_t first, int connections, int depth,
                                 double seconds, double window_s);

}  // namespace bench
