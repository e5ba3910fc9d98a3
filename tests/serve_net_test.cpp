// SocketServer at the socket level: the connection loop's framing and
// batching (pipelined and byte-at-a-time requests, CRLF, a final
// unterminated line, QUIT in the middle of a pipeline, over-long lines) and
// the worker lifecycle (only finished workers are reaped, the connection
// cap, shutdown() closing live connections). Clients are raw sockets with a
// receive timeout, so a server that never answers fails a test instead of
// hanging it.
#include <gtest/gtest.h>

#include "serve/net.hpp"

#if HT_HAVE_SOCKETS

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_model.hpp"
#include "tensor/generators.hpp"
#include "util/error.hpp"

namespace {

using ht::serve::Dispatcher;
using ht::serve::DispatcherHooks;
using ht::serve::ModelHandle;
using ht::serve::QueryOptions;
using ht::serve::ServeModel;
using ht::serve::SocketServer;

std::shared_ptr<const ServeModel> tiny_model() {
  static const std::shared_ptr<const ServeModel> model = [] {
    ht::tensor::CooTensor x = ht::tensor::random_zipf(
        {12, 9, 6}, 400, {0.8, 0.8, 0.5}, 31);
    ht::tensor::plant_low_rank_values(x, 2, 0.1, 32);
    ht::core::HooiOptions options;
    options.ranks = {3, 3, 2};
    options.max_iterations = 2;
    return std::make_shared<const ServeModel>(ht::core::TuckerModel::from_hooi(
        x, ht::core::hooi(x, options)));
  }();
  return model;
}

// A dispatcher served on a free loopback TCP port or a unix socket.
class Served {
 public:
  explicit Served(bool unix_socket = false, DispatcherHooks hooks = {})
      : dispatcher_(handle_, QueryOptions{}, std::move(hooks)) {
    handle_.publish(tiny_model());
    if (unix_socket) {
      target_ = testing::TempDir() + "ht_serve_net_" +
                std::to_string(::getpid()) + ".sock";
      server_.listen_unix(target_);
    } else {
      server_.listen_tcp(0);
      target_ = "127.0.0.1:" + std::to_string(server_.port());
    }
    server_.serve_async([this](const std::string& line) {
      return dispatcher_.handle_line(line);
    });
  }

  [[nodiscard]] const std::string& target() const { return target_; }
  SocketServer& server() { return server_; }

 private:
  ModelHandle handle_;
  Dispatcher dispatcher_;
  SocketServer server_;  // last: shut down before the dispatcher goes
  std::string target_;
};

class Client {
 public:
  explicit Client(const std::string& target, double timeout_s = 5.0) {
    if (target.find('/') != std::string::npos) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, target.c_str(), sizeof(addr.sun_path) - 1);
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(
          std::stoi(target.substr(target.rfind(':') + 1))));
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
      // One segment per send(), so byte-at-a-time writes arrive that way.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t w = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(w));
    }
    return true;
  }

  /// No more requests: the server reads EOF after what was sent.
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// The next line without its '\n'; false at EOF, on error or timeout.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      if (fill() <= 0) return false;
    }
  }

  /// Exactly `n` bytes (fewer at EOF, on error or timeout).
  std::string read_bytes(std::size_t n) {
    while (buf_.size() < n && fill() > 0) {
    }
    std::string out = buf_.substr(0, n);
    buf_.erase(0, out.size());
    return out;
  }

  /// Everything up to the end of the connection. `closed` is false when
  /// the server kept the connection open until the timeout.
  std::string read_to_eof(bool& closed) {
    ssize_t r;
    while ((r = fill()) > 0) {
    }
    closed = r == 0 || errno == ECONNRESET;
    return std::exchange(buf_, {});
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  ssize_t fill() {
    char chunk[1 << 14];
    ssize_t r;
    do {
      r = ::recv(fd_, chunk, sizeof chunk, 0);
    } while (r < 0 && errno == EINTR);
    if (r > 0) buf_.append(chunk, static_cast<std::size_t>(r));
    return r;
  }

  int fd_ = -1;
  std::string buf_;
};

// A client that has been answered once, so its worker is running.
std::unique_ptr<Client> live_client(const std::string& target) {
  auto c = std::make_unique<Client>(target);
  std::string line;
  EXPECT_TRUE(c->send("PING\n") && c->read_line(line) && line == "OK pong")
      << "a live client was not answered: '" << line << "'";
  return c;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

const std::vector<std::string> kRequests = {
    "PING",        "SCORE 3 4 5", "SCOREB 3,4,5;1,1,1", "TOPK 3 2 1",
    "INFO",        "SCORE 99 0 0", "NONSENSE",          "",
    "SCORE 1 2",   "TOPK 0 3 1",  "SCORE 0 0 0"};

class PipelineTest : public testing::TestWithParam<bool> {};

TEST_P(PipelineTest, PipelinedAndBytewiseRequestsMatchOneAtATime) {
  Served served(/*unix_socket=*/GetParam());
  const std::string expected =
      joined(ht::serve::query_lines(served.target(), kRequests));
  ASSERT_EQ(std::count(expected.begin(), expected.end(), '\n'),
            static_cast<std::ptrdiff_t>(kRequests.size()));

  Client pipelined(served.target());
  ASSERT_TRUE(pipelined.send(joined(kRequests)));
  EXPECT_EQ(pipelined.read_bytes(expected.size()), expected);

  Client bytewise(served.target());
  for (const char c : joined(kRequests)) {
    ASSERT_TRUE(bytewise.send(std::string_view(&c, 1)));
  }
  EXPECT_EQ(bytewise.read_bytes(expected.size()), expected);
}

INSTANTIATE_TEST_SUITE_P(Transports, PipelineTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Unix" : "Tcp";
                         });

TEST(ConnectionLoopTest, CrlfAndFinalUnterminatedLineAreAnswered) {
  Served served;
  const std::string score =
      ht::serve::query_line(served.target(), "SCORE 3 4 5");
  Client c(served.target());
  ASSERT_TRUE(c.send("PING\r\nSCORE 3 4 5\r\nPING"));
  c.finish_sending();
  bool closed = false;
  EXPECT_EQ(c.read_to_eof(closed), "OK pong\n" + score + "\nOK pong\n");
  EXPECT_TRUE(closed);
}

TEST(ConnectionLoopTest, QuitMidPipelineAnswersByeAndNothingAfter) {
  Served served;
  Client c(served.target());
  ASSERT_TRUE(c.send("PING\nQUIT\nPING\nSCORE 3 4 5\n"));
  bool closed = false;
  EXPECT_EQ(c.read_to_eof(closed), "OK pong\nOK bye\n");
  EXPECT_TRUE(closed);
}

TEST(ConnectionLoopTest, OverLongLineIsRefusedAndServerKeepsAccepting) {
  Served served;
  const std::size_t cap = ht::serve::kMaxLineBytes;

  // A line of exactly the cap is still a request.
  Client at_cap(served.target());
  ASSERT_TRUE(at_cap.send("PING" + std::string(cap - 4, ' ') + "\n"));
  std::string line;
  ASSERT_TRUE(at_cap.read_line(line));
  EXPECT_EQ(line, "OK pong");

  // One byte more, newline-free: answered once, then closed.
  Client stream(served.target());
  ASSERT_TRUE(stream.send("PING\n" + std::string(cap + 1, '7')));
  bool closed = false;
  EXPECT_EQ(stream.read_to_eof(closed),
            "OK pong\nERR request line too long\n");
  EXPECT_TRUE(closed);

  // The same with a newline after the over-long line. The server closes
  // before reading it all, so this send may fail part way.
  Client line_over(served.target());
  line_over.send("SCOREB " + std::string(cap, ';') + "\nPING\n");
  EXPECT_EQ(line_over.read_to_eof(closed), "ERR request line too long\n");
  EXPECT_TRUE(closed);

  EXPECT_EQ(ht::serve::query_line(served.target(), "PING"), "OK pong");
}

TEST(WorkerLifecycleTest, NewClientIsAnsweredWhileManyIdleClientsStay) {
  Served served;
  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 64; ++i) idle.push_back(live_client(served.target()));
  ASSERT_FALSE(HasFailure());

  Client late(served.target(), /*timeout_s=*/2.0);
  std::string line;
  ASSERT_TRUE(late.send("PING\n"));
  EXPECT_TRUE(late.read_line(line))
      << "no answer within 2 s while 64 idle clients are connected";
  EXPECT_EQ(line, "OK pong");
}

TEST(WorkerLifecycleTest, ClientOverTheCapIsRefusedUntilOneLeaves) {
  Served served;
  std::vector<std::unique_ptr<Client>> idle;
  for (std::size_t i = 0; i < SocketServer::kMaxConnections; ++i) {
    idle.push_back(live_client(served.target()));
    ASSERT_FALSE(HasFailure()) << "client " << i;
  }

  Client extra(served.target());
  bool closed = false;
  EXPECT_EQ(extra.read_to_eof(closed), "ERR too many connections\n");
  EXPECT_TRUE(closed);

  // Once a client leaves and its worker finishes, a new one is served.
  idle.pop_back();
  std::string line;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    Client next(served.target());
    if (next.send("PING\n") && next.read_line(line) && line == "OK pong") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(line, "OK pong");
}

TEST(WorkerLifecycleTest, ShutdownClosesIdleConnections) {
  Served served;
  auto idle = live_client(served.target());
  ASSERT_FALSE(HasFailure());

  auto stopped = std::async(std::launch::async,
                            [&served] { served.server().shutdown(); });
  const bool prompt =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  bool closed = false;
  if (prompt) idle->read_to_eof(closed);
  idle->close();  // lets a shutdown() that waits for its clients return
  stopped.wait();
  EXPECT_TRUE(prompt) << "shutdown() waited for an idle client to hang up";
  EXPECT_TRUE(closed);
}

// tuckerd's path: SHUTDOWN asks another thread to call shutdown(). The
// requester still gets its "OK bye"; an idle client is disconnected.
TEST(WorkerLifecycleTest, ShutdownRequestIsAnsweredAndIdleClientsClosed) {
  std::promise<void> asked;
  DispatcherHooks hooks;
  hooks.shutdown = [&asked] { asked.set_value(); };
  Served served(/*unix_socket=*/false, hooks);
  auto idle = live_client(served.target());
  ASSERT_FALSE(HasFailure());

  std::thread stopper([&] {
    asked.get_future().wait_for(std::chrono::seconds(5));
    served.server().shutdown();
  });
  Client requester(served.target());
  EXPECT_TRUE(requester.send("SHUTDOWN\nPING\n"));
  bool closed = false;
  EXPECT_EQ(requester.read_to_eof(closed), "OK bye\n");
  EXPECT_TRUE(closed);

  const std::string rest = idle->read_to_eof(closed);
  idle->close();  // lets a shutdown() that waits for its clients return
  stopper.join();
  EXPECT_EQ(rest, "");
  EXPECT_TRUE(closed) << "the idle client was not disconnected";
  EXPECT_THROW(ht::serve::query_line(served.target(), "PING"), ht::Error);
}

}  // namespace

#endif  // HT_HAVE_SOCKETS
