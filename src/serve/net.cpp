#include "serve/net.hpp"

#if HT_HAVE_SOCKETS

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <string_view>
#include <system_error>

#include "serve/protocol.hpp"
#include "util/error.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace ht::serve {

namespace {

// Bytes a connection asks recv() for at a time.
constexpr std::size_t kRecvBytes = 16 << 10;
// How long shutdown() lets workers flush their last replies before it
// cuts the connections that are still open.
constexpr auto kShutdownGrace = std::chrono::seconds(1);

/// False when the peer is gone.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t w = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

/// One recv() straight into the framer's buffer, retried on EINTR: the
/// byte count, 0 at EOF, negative on error.
ssize_t recv_into(int fd, LineFramer& in) {
  for (;;) {
    const std::span<char> space = in.prepare(kRecvBytes);
    const ssize_t r = ::recv(fd, space.data(), space.size(), 0);
    if (r > 0) in.commit(static_cast<std::size_t>(r));
    if (r >= 0 || errno != EINTR) return r;
  }
}

int connect_target(const std::string& target) {
  if (target.find('/') != std::string::npos) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    HT_CHECK_MSG(target.size() < sizeof(addr.sun_path),
                 "unix socket path too long: " << target);
    std::strncpy(addr.sun_path, target.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    HT_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int err = errno;
      ::close(fd);
      HT_CHECK_MSG(false, "connect(" << target
                                     << "): " << std::strerror(err));
    }
    return fd;
  }

  std::string host = "127.0.0.1", port = target;
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos) {
    host = target.substr(0, colon);
    port = target.substr(colon + 1);
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  HT_CHECK_MSG(rc == 0 && res != nullptr,
               "cannot resolve " << target << ": " << ::gai_strerror(rc));
  int fd = -1;
  int err = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) { err = errno; continue; }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  HT_CHECK_MSG(fd >= 0,
               "connect(" << target << "): " << std::strerror(err));
  return fd;
}

}  // namespace

SocketServer::~SocketServer() {
  shutdown();
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void SocketServer::listen_unix(const std::string& path) {
  HT_CHECK_MSG(listen_fd_ < 0, "server is already listening");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HT_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HT_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HT_CHECK_MSG(false, "bind/listen(" << path
                                       << "): " << std::strerror(err));
  }
  listen_fd_ = fd;
  unix_path_ = path;
}

void SocketServer::listen_tcp(int port) {
  HT_CHECK_MSG(listen_fd_ < 0, "server is already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HT_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HT_CHECK_MSG(false, "bind/listen(127.0.0.1:"
                            << port << "): " << std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
}

void SocketServer::serve(Handler handler) {
  HT_CHECK_MSG(listen_fd_ >= 0, "serve() before listen");
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);
  accept_loop();
}

void SocketServer::serve_async(Handler handler) {
  HT_CHECK_MSG(listen_fd_ >= 0, "serve_async() before listen");
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&SocketServer::accept_loop, this);
}

void SocketServer::accept_loop() {
  // Snapshot the fd: shutdown() closes it (which unblocks accept) but only
  // clears the member after this thread is joined, so no racy member read.
  const int listen_fd = listen_fd_;
  const bool tcp = unix_path_.empty();
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by shutdown()
    }
    if (tcp) {
      // Replies must not wait for the client's next segment to ACK the
      // previous one; batching happens per read instead (serve_connection).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    reap_finished();
    if (live_ >= kMaxConnections) {
      const std::string_view busy = "ERR too many connections\n";
      ::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    try {
      conn.worker = std::thread(&SocketServer::serve_connection, this,
                                std::ref(conn));
    } catch (const std::system_error&) {
      connections_.pop_back();  // out of threads: drop this client
      ::close(fd);
      continue;
    }
    ++live_;  // the worker needs mutex_ to count itself out
  }
}

void SocketServer::serve_connection(Connection& conn) {
  const int fd = conn.fd;
  try {
    LineFramer in;
    std::string request, out;
    // Appends the reply to `line` to `out`; false once the reply closes the
    // connection (QUIT/SHUTDOWN answer "OK bye").
    const auto answer = [&](std::string_view line) {
      request.assign(line);
      std::string response;
      try {
        response = handler_(request);
      } catch (const std::exception& e) {
        response = std::string("ERR ") + e.what();
      }
      out += response;
      out += '\n';
      return response != "OK bye";
    };

    bool open = true;
    for (;;) {
      // Answer every complete line already received, then send the replies
      // in one go before blocking in recv() again.
      std::string_view line;
      auto status = LineFramer::Status::kPartial;
      while (open && (status = in.next(line)) == LineFramer::Status::kLine) {
        open = answer(line);
      }
      if (status == LineFramer::Status::kTooLong) {
        out += "ERR request line too long\n";
        open = false;
      }
      if (!send_all(fd, out)) break;  // peer went away mid-response
      out.clear();
      if (!open || !running_.load(std::memory_order_acquire)) break;
      const ssize_t r = recv_into(fd, in);
      if (r <= 0) {
        // EOF still answers a final unterminated line; a reset does not,
        // nor does the EOF shutdown() causes.
        if (r == 0 && running_.load(std::memory_order_acquire) &&
            in.finish(line)) {
          answer(line);
        }
        open = false;
      }
    }
  } catch (const std::exception&) {
    // Out of memory for this client's buffers: closing the connection is
    // the answer, and the other connections keep being served.
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn.done = true;
    --live_;
  }
  drained_.notify_all();
  ::close(fd);
}

void SocketServer::reap_finished() {
  // Joining here keeps the list from growing without bound on a long-lived
  // daemon; a finished worker is past its last use of the mutex, so the
  // join returns at once.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->done) {
      ++it;
      continue;
    }
    it->worker.join();
    it = connections_.erase(it);
  }
}

void SocketServer::shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel) &&
      listen_fd_ < 0) {
    return;
  }
  if (listen_fd_ >= 0) {
    // Closing the listen socket unblocks the accept loop; the member is
    // cleared only after the accept thread is joined below (it still
    // holds its own copy of the fd value).
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  {
    // The accept loop adds no connection once running_ is false (it checks
    // under this lock). Ending the read side wakes every worker blocked in
    // recv() while letting one in the middle of a batch send its replies;
    // a worker still stuck in send() after the grace period is cut off.
    std::unique_lock<std::mutex> lock(mutex_);
    for (const Connection& c : connections_) {
      if (!c.done) ::shutdown(c.fd, SHUT_RD);
    }
    if (!drained_.wait_for(lock, kShutdownGrace,
                           [this] { return live_ == 0; })) {
      for (const Connection& c : connections_) {
        if (!c.done) ::shutdown(c.fd, SHUT_RDWR);
      }
    }
  }
  for (Connection& c : connections_) c.worker.join();
  connections_.clear();
}

std::vector<std::string> query_lines(const std::string& target,
                                     const std::vector<std::string>& lines) {
#if !defined(MSG_NOSIGNAL) || MSG_NOSIGNAL == 0
  ::signal(SIGPIPE, SIG_IGN);
#endif
  const int fd = connect_target(target);
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  // Replies are not capped: a SCOREB or TOPK answer can be far longer than
  // its request.
  LineFramer in(std::numeric_limits<std::size_t>::max());
  try {
    for (const std::string& req : lines) {
      HT_CHECK_MSG(send_all(fd, req + '\n'),
                   "socket send failed: " << std::strerror(errno));
      std::string_view line;
      while (in.next(line) != LineFramer::Status::kLine) {
        if (recv_into(fd, in) <= 0) {  // a reset counts as EOF
          HT_CHECK_MSG(in.finish(line),
                       "server closed the connection before responding");
          break;
        }
      }
      responses.emplace_back(line);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return responses;
}

std::string query_line(const std::string& target, const std::string& line) {
  return query_lines(target, {line}).front();
}

}  // namespace ht::serve

#endif  // HT_HAVE_SOCKETS
