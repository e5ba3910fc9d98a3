#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "report.hpp"
#include "serve/net.hpp"

namespace bench {

namespace {

constexpr std::size_t kKeepMismatches = 3;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect(127.0.0.1:" + std::to_string(port) +
                             "): " + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send(): " + std::string(std::strerror(errno)));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Buffered newline splitter over a socket or pipe with a give-up deadline.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line (without '\n'); false on EOF, error or `give_up` passing.
  bool next(std::string& line, Clock::time_point give_up) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 1 << 16) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          give_up - Clock::now());
      if (left.count() <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(std::min<long long>(left.count(), 50)));
      if (rc < 0 && errno != EINTR) return false;
      if (rc <= 0) continue;
      char chunk[1 << 14];
      const ssize_t r = ::read(fd_, chunk, sizeof chunk);  // socket or pipe
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

std::string mismatch_text(const Request& r, const std::string& got) {
  return "serve response mismatch: '" + r.line + "' -> '" + got.substr(0, 120) +
         "', expected '" + r.expected.substr(0, 120) + "'";
}

bool reap(pid_t pid, double wait_s, int* status) {
  const auto give_up = Clock::now() + std::chrono::duration<double>(wait_s);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return true;
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& bundle) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2() failed");
  std::vector<std::string> args = {binary, "--model", bundle, "--port", "0",
                                   "--print-port"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(out[1]);
  Fd pipe_in(out[0]);

  const auto give_up = t0 + std::chrono::seconds(20);
  try {
    LineReader lines(pipe_in.fd);
    std::string port_line;
    if (!lines.next(port_line, give_up)) {
      throw std::runtime_error("tuckerd did not report its port");
    }
    port_ = std::atoi(port_line.c_str());
    if (port_ <= 0) throw std::runtime_error("tuckerd printed a bad port: " + port_line);
    for (;;) {
      try {
        if (request("PING") == "OK pong") break;
      } catch (const std::exception&) {
      }
      if (Clock::now() >= give_up) throw std::runtime_error("tuckerd never answered PING");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (...) {
    // The destructor does not run for a half-built object: reap here.
    ::kill(pid_, SIGKILL);
    int status = 0;
    reap(pid_, 10.0, &status);
    throw;
  }
  ready_s_ = seconds_since(t0);
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  try {
    shutdown();
  } catch (const std::exception&) {
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    reap(pid_, 10.0, &status);
  }
}

std::string Daemon::request(const std::string& line) const {
  return ht::serve::query_line("127.0.0.1:" + std::to_string(port_), line);
}

bool Daemon::shutdown() {
  if (pid_ <= 0) return false;
  bool answered = false;
  try {
    answered = request("SHUTDOWN") == "OK bye";
  } catch (const std::exception&) {
  }
  int status = 0;
  if (!reap(pid_, 10.0, &status)) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10.0, &status);
    pid_ = -1;
    return false;
  }
  pid_ = -1;
  return answered && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

OpenLoopResult run_open_loop(int port, std::span<const Request> requests,
                             double rate, int connections, double reload_at_s,
                             double drain_s) {
  const std::size_t n = requests.size();
  std::vector<std::string> framed(n);
  for (std::size_t i = 0; i < n; ++i) framed[i] = requests[i].line + '\n';

  std::vector<std::unique_ptr<Fd>> fds;
  for (int c = 0; c < connections; ++c) {
    fds.push_back(std::make_unique<Fd>(connect_loopback(port)));
  }

  OpenLoopResult res;
  std::vector<double> latency(n, std::nan(""));
  res.lag_us.assign(n, 0.0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<long long>(std::llround(1e9 * static_cast<double>(i) / rate)));
  };

  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> sent{0};
  std::mutex mu;  // guards res.wrong / res.mismatches from the readers
  std::thread writer([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const auto d = due(i);
        auto now = Clock::now();
        while (now < d) now = Clock::now();
        res.lag_us[i] = std::chrono::duration<double, std::micro>(now - d).count();
        send_all(fds[i % connections]->fd, framed[i]);
        sent.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception&) {
      // A failed send leaves the rest unsent; they count as missing.
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Readers give up drain_s after the schedule ends (or after the writer
  // stopped early).
  const auto end_of_schedule = due(n);
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      LineReader reader(fds[c]->fd);
      std::string line;
      std::uint64_t wrong = 0;
      std::vector<std::string> bad;
      for (std::size_t j = static_cast<std::size_t>(c); j < n; j += connections) {
        const auto give_up = std::max(end_of_schedule, Clock::now()) +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(drain_s));
        bool got = false;
        while (!got) {
          got = reader.next(line, std::min(give_up, Clock::now() + std::chrono::milliseconds(100)));
          if (!got && (Clock::now() >= give_up ||
                       (writer_done.load(std::memory_order_acquire) &&
                        sent.load(std::memory_order_relaxed) <= j))) {
            break;
          }
        }
        if (!got) break;
        latency[j] = std::chrono::duration<double, std::micro>(Clock::now() - due(j)).count();
        if (line != requests[j].expected) {
          ++wrong;
          if (bad.size() < kKeepMismatches) bad.push_back(mismatch_text(requests[j], line));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      res.wrong += wrong;
      for (auto& b : bad) {
        if (res.mismatches.size() < kKeepMismatches) res.mismatches.push_back(std::move(b));
      }
    });
  }

  // The write beside the reads: a hot swap in the middle of the schedule.
  if (reload_at_s >= 0) {
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(reload_at_s)));
    const auto r0 = Clock::now();
    try {
      res.reload_response =
          ht::serve::query_line("127.0.0.1:" + std::to_string(port), "RELOAD");
    } catch (const std::exception& e) {
      res.reload_response = std::string("ERR ") + e.what();
    }
    res.reload_ms = seconds_since(r0) * 1e3;
  }

  writer.join();
  for (auto& r : readers) r.join();

  res.sent = sent.load();
  res.answered = static_cast<std::uint64_t>(
      std::count_if(latency.begin(), latency.end(), [](double v) { return std::isfinite(v); }));
  res.latency_us = std::move(latency);
  res.lag_us.resize(res.sent);
  return res;
}

ClosedLoopResult run_closed_loop(int port, std::span<const Request> requests,
                                 std::size_t first, int connections, int depth,
                                 double seconds, double window_s) {
  ClosedLoopResult res;
  const auto windows = static_cast<std::size_t>(seconds / window_s);
  res.per_window.assign(windows, 0);
  std::mutex mu;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t completed = 0, wrong = 0, missing = 0;
      std::vector<std::uint64_t> per_window(windows, 0);
      std::vector<std::string> bad;
      try {
        Fd fd(connect_loopback(port));
        LineReader reader(fd.fd);
        std::size_t next = first + requests.size() * c / connections;
        std::deque<std::size_t> inflight;
        auto send_next = [&] {
          const std::size_t i = next++ % requests.size();
          send_all(fd.fd, requests[i].line + '\n');
          inflight.push_back(i);
        };
        for (int d = 0; d < depth; ++d) send_next();
        std::string line;
        while (!inflight.empty()) {
          if (!reader.next(line, stop + std::chrono::seconds(5))) break;
          const std::size_t i = inflight.front();
          inflight.pop_front();
          ++completed;
          const auto now = Clock::now();
          const auto w = static_cast<std::size_t>(
              std::chrono::duration<double>(now - start).count() / window_s);
          if (w < windows) ++per_window[w];
          if (line != requests[i].expected) {
            ++wrong;
            if (bad.size() < kKeepMismatches) bad.push_back(mismatch_text(requests[i], line));
          }
          if (now < stop) send_next();
        }
        missing = inflight.size();
      } catch (const std::exception& e) {
        missing += 1;
        bad.push_back(std::string("closed loop: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(mu);
      res.completed += completed;
      res.wrong += wrong;
      res.missing += missing;
      for (std::size_t w = 0; w < windows; ++w) res.per_window[w] += per_window[w];
      for (auto& b : bad) {
        if (res.mismatches.size() < kKeepMismatches) res.mismatches.push_back(std::move(b));
      }
    });
  }
  for (auto& t : clients) t.join();
  return res;
}

}  // namespace bench
