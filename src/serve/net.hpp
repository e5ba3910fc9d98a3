// Minimal POSIX socket server + client helper for the tuckerd line
// protocol. Unix-domain and 127.0.0.1 TCP listeners are supported; the
// target string picks the transport: anything containing '/' is a unix
// socket path, otherwise it is host:port (client) or a bare port was
// already resolved by the caller (server).
//
// The server runs one accept loop and one thread per connection, at most
// kMaxConnections at a time; each connection reads newline-delimited
// requests (LineFramer, at most kMaxLineBytes each) and writes one response
// line per request via a caller-supplied handler. Every complete request
// already received is answered before the replies go out in one send, and
// TCP connections set TCP_NODELAY, so a lone request never waits on
// Nagle's algorithm. shutdown() closes the listen socket, closes the live
// connections, and joins every worker — safe to call from a handler thread
// through a deferred hook.
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#define HT_HAVE_SOCKETS 1
#else
#define HT_HAVE_SOCKETS 0
#endif

#if HT_HAVE_SOCKETS

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ht::serve {

class SocketServer {
 public:
  /// Handler: one request line in (no newline), one response line out.
  using Handler = std::function<std::string(const std::string&)>;

  /// Live connections served at once; one more is sent
  /// "ERR too many connections" and closed.
  static constexpr std::size_t kMaxConnections = 128;

  SocketServer() = default;
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Listen on a unix-domain socket path (unlinks a stale socket first).
  void listen_unix(const std::string& path);
  /// Listen on 127.0.0.1:port; port 0 picks a free port (see port()).
  void listen_tcp(int port);

  /// Bound TCP port (after listen_tcp), 0 for unix sockets.
  [[nodiscard]] int port() const { return port_; }

  /// Accept + serve until shutdown(). Blocks the calling thread.
  void serve(Handler handler);
  /// Run serve() on a background thread.
  void serve_async(Handler handler);

  /// Stop accepting, close the listen socket and the live connections,
  /// join all workers. A worker in the middle of a batch still sends its
  /// replies (SHUTDOWN's own "OK bye" among them) unless its client has
  /// stopped reading for a grace period.
  void shutdown();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    int fd = -1;
    bool done = false;  // set by its worker, under mutex_, before closing fd
    std::thread worker;
  };

  void accept_loop();
  void serve_connection(Connection& conn);
  void reap_finished();  // caller holds mutex_

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string unix_path_;
  std::atomic<bool> running_{false};
  std::mutex mutex_;  // guards connections_, live_ and Connection::done
  std::condition_variable drained_;  // a worker finished
  std::list<Connection> connections_;
  std::size_t live_ = 0;  // connections whose worker is not done
  std::thread accept_thread_;
};

/// Client: connect to `target`, send each line, collect one response line
/// per request. A target containing '/' is a unix socket path, otherwise
/// "host:port". Throws ht::Error on connection or I/O failure.
std::vector<std::string> query_lines(const std::string& target,
                                     const std::vector<std::string>& lines);

/// Single-request convenience wrapper over query_lines().
std::string query_line(const std::string& target, const std::string& line);

}  // namespace ht::serve

#endif  // HT_HAVE_SOCKETS
