// Wire protocol and dispatcher: request parsing, %.17g double round-trip,
// dispatcher responses against a live handle (including engine rebuild on
// hot swap), and a loopback SocketServer end-to-end exchange.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_model.hpp"
#include "tensor/generators.hpp"

namespace {

using ht::core::TuckerModel;
using ht::serve::Dispatcher;
using ht::serve::DispatcherHooks;
using ht::serve::ModelHandle;
using ht::serve::QueryOptions;
using ht::serve::Request;
using ht::serve::RequestType;
using ht::serve::ServeModel;
using ht::tensor::CooTensor;
using ht::tensor::index_t;

std::shared_ptr<const ServeModel> tiny_model() {
  static const std::shared_ptr<const ServeModel> model = [] {
    CooTensor x = ht::tensor::random_zipf({12, 9, 6}, 400, {0.8, 0.8, 0.5},
                                          31);
    ht::tensor::plant_low_rank_values(x, 2, 0.1, 32);
    ht::core::HooiOptions options;
    options.ranks = {3, 3, 2};
    options.max_iterations = 2;
    return std::make_shared<const ServeModel>(
        TuckerModel::from_hooi(x, ht::core::hooi(x, options)));
  }();
  return model;
}

TEST(ProtocolTest, ParsesEveryRequestKind) {
  EXPECT_EQ(ht::serve::parse_request("PING").type, RequestType::kPing);
  EXPECT_EQ(ht::serve::parse_request("  INFO  ").type, RequestType::kInfo);
  EXPECT_EQ(ht::serve::parse_request("STATS").type, RequestType::kStats);
  EXPECT_EQ(ht::serve::parse_request("RELOAD").type, RequestType::kReload);
  EXPECT_EQ(ht::serve::parse_request("SHUTDOWN").type,
            RequestType::kShutdown);
  EXPECT_EQ(ht::serve::parse_request("QUIT").type, RequestType::kQuit);

  const Request score = ht::serve::parse_request("SCORE 3 17 5");
  ASSERT_EQ(score.type, RequestType::kScore);
  ASSERT_EQ(score.queries.size(), 1u);
  EXPECT_EQ(score.queries[0], (std::vector<index_t>{3, 17, 5}));

  const Request batch = ht::serve::parse_request("SCOREB 1,2,3;4,5,6");
  ASSERT_EQ(batch.type, RequestType::kScoreBatch);
  ASSERT_EQ(batch.queries.size(), 2u);
  EXPECT_EQ(batch.queries[1], (std::vector<index_t>{4, 5, 6}));

  const Request topk = ht::serve::parse_request("TOPK 7 10 2");
  ASSERT_EQ(topk.type, RequestType::kTopk);
  EXPECT_EQ(topk.entity, 7u);
  EXPECT_EQ(topk.k, 10u);
  EXPECT_EQ(topk.rest, (std::vector<index_t>{2}));
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  for (const char* bad :
       {"", "   ", "FROB", "SCORE", "SCORE 1 x 3", "SCORE -1 2 3",
        "SCOREB", "SCOREB 1,2,;3", "TOPK", "TOPK 5", "TOPK 5 0",
        "TOPK x 3", "SCORE 99999999999"}) {
    const Request r = ht::serve::parse_request(bad);
    EXPECT_EQ(r.type, RequestType::kInvalid) << "input: '" << bad << "'";
    EXPECT_FALSE(r.error.empty());
  }
}

// A string literal with its embedded NULs.
template <std::size_t N>
std::string bytes(const char (&literal)[N]) {
  return std::string(literal, N - 1);
}

TEST(ProtocolTest, CoordinatesArePlainDecimalDigits) {
  // A strtoull-style parse stops at an embedded NUL (reading this as
  // SCORE 1 2 3), takes a sign, and wraps a negative number.
  const std::string nul = bytes("SCORE 1\0junk 2 3");
  for (const std::string& bad :
       {nul, bytes("TOPK 3 2\0 1"), bytes("SCOREB 1,2\0,3"),
        std::string("SCORE +5 2 3"), std::string("SCORE -0 2 3"),
        std::string("SCORE 1 2 -18446744073709551615"),
        std::string("SCOREB 1,+2,3"), std::string("TOPK -0 3 1"),
        std::string("TOPK 3 +2 1")}) {
    const Request r = ht::serve::parse_request(bad);
    EXPECT_EQ(r.type, RequestType::kInvalid)
        << "input: '" << bad << "' (" << bad.size() << " bytes)";
  }
  EXPECT_EQ(ht::serve::parse_request(nul).error,
            bytes("bad coordinate '1\0junk'"));

  // Leading zeros and the index_t maximum still parse.
  const Request zeros = ht::serve::parse_request("SCORE 007 0 4294967295");
  ASSERT_EQ(zeros.type, RequestType::kScore);
  EXPECT_EQ(zeros.queries[0], (std::vector<index_t>{7, 0, 4294967295u}));
}

TEST(ProtocolTest, DoubleRoundTripsTheWireBitExactly) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, -2.718281828459045e-12,
                         123456789.123456789}) {
    const std::string line = ht::serve::format_value(v);
    ASSERT_TRUE(ht::serve::response_ok(line));
    const double parsed = std::strtod(line.c_str() + 3, nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0) << line;
  }
}

TEST(ProtocolTest, ResponseOkDiscriminates) {
  EXPECT_TRUE(ht::serve::response_ok("OK"));
  EXPECT_TRUE(ht::serve::response_ok("OK pong"));
  EXPECT_FALSE(ht::serve::response_ok("ERR nope"));
  EXPECT_FALSE(ht::serve::response_ok("OKAY"));
  EXPECT_FALSE(ht::serve::response_ok(""));
}

TEST(DispatcherTest, AnswersQueriesAndErrors) {
  ModelHandle handle;
  handle.publish(tiny_model());
  Dispatcher dispatcher(handle, QueryOptions{});

  EXPECT_EQ(dispatcher.handle_line("PING"), "OK pong");
  EXPECT_TRUE(ht::serve::response_ok(dispatcher.handle_line("INFO")));

  // SCORE through the wire == direct model query, bit-exactly.
  const std::vector<index_t> idx = {3, 4, 5};
  const std::string line = dispatcher.handle_line("SCORE 3 4 5");
  ASSERT_TRUE(ht::serve::response_ok(line)) << line;
  const double wire = std::strtod(line.c_str() + 3, nullptr);
  const double direct = tiny_model()->score(idx);
  EXPECT_EQ(std::memcmp(&wire, &direct, sizeof wire), 0);

  // Errors: bounds, arity, unknown commands, hooks not installed.
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("SCORE 99 0 0")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("SCORE 1 2")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("NONSENSE")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("RELOAD")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("TOPK 0 3")));
  EXPECT_TRUE(ht::serve::response_ok(dispatcher.handle_line("TOPK 0 3 1")));
}

TEST(DispatcherTest, TopkKIsClampedToTheItemCount) {
  ModelHandle handle;
  handle.publish(tiny_model());
  Dispatcher dispatcher(handle, QueryOptions{});
  const std::string items = std::to_string(tiny_model()->dims()[1]);
  const std::string all = dispatcher.handle_line("TOPK 3 " + items + " 1");
  ASSERT_TRUE(ht::serve::response_ok(all)) << all;
  EXPECT_EQ(dispatcher.handle_line("TOPK 3 4294967295 1"), all);
}

TEST(DispatcherTest, NoModelPublishedIsAnError) {
  ModelHandle handle;
  Dispatcher dispatcher(handle, QueryOptions{});
  EXPECT_EQ(dispatcher.handle_line("PING"), "OK pong");
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("SCORE 0 0 0")));
}

TEST(DispatcherTest, RebuildsEngineOnEpochChange) {
  ModelHandle handle;
  handle.publish(tiny_model());
  Dispatcher dispatcher(handle, QueryOptions{});

  ASSERT_TRUE(ht::serve::response_ok(dispatcher.handle_line("SCORE 1 1 1")));
  const auto engine_before = dispatcher.engine();

  handle.publish(tiny_model());  // same model, new epoch
  ASSERT_TRUE(ht::serve::response_ok(dispatcher.handle_line("SCORE 1 1 1")));
  const auto engine_after = dispatcher.engine();
  EXPECT_NE(engine_before.get(), engine_after.get())
      << "dispatcher must rebuild the engine (cold cache) after a swap";

  // The old engine handle stays usable for in-flight requests.
  EXPECT_EQ(engine_before->score(std::vector<index_t>{1, 1, 1}),
            engine_after->score(std::vector<index_t>{1, 1, 1}));
}

#if HT_HAVE_SOCKETS
TEST(SocketServerTest, LoopbackEndToEnd) {
  ModelHandle handle;
  handle.publish(tiny_model());
  bool reloaded = false;
  DispatcherHooks hooks;
  hooks.reload = [&reloaded, &handle] {
    reloaded = true;
    handle.publish(tiny_model());
  };
  Dispatcher dispatcher(handle, QueryOptions{}, hooks);

  ht::serve::SocketServer server;
  server.listen_tcp(0);  // free port
  ASSERT_GT(server.port(), 0);
  server.serve_async(
      [&dispatcher](const std::string& line) {
        return dispatcher.handle_line(line);
      });

  const std::string target = "127.0.0.1:" + std::to_string(server.port());
  const auto responses = ht::serve::query_lines(
      target, {"PING", "SCORE 3 4 5", "SCOREB 3,4,5;1,1,1", "TOPK 3 2 1",
               "RELOAD", "STATS", "QUIT"});
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses[0], "OK pong");
  for (const auto& r : responses) {
    EXPECT_TRUE(ht::serve::response_ok(r)) << r;
  }
  EXPECT_TRUE(reloaded);

  // SCORE over the socket == direct query, bit-exact through %.17g.
  const double wire = std::strtod(responses[1].c_str() + 3, nullptr);
  const double direct = tiny_model()->score(std::vector<index_t>{3, 4, 5});
  EXPECT_EQ(std::memcmp(&wire, &direct, sizeof wire), 0);

  // Several sequential clients; then shut the server down.
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(ht::serve::query_line(target, "PING"), "OK pong");
  }
  server.shutdown();
  EXPECT_THROW(ht::serve::query_line(target, "PING"), ht::Error);
}
#endif  // HT_HAVE_SOCKETS

}  // namespace
