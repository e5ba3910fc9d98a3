// Seeded mutation test for the tuckerd line protocol.
//
// Mutants of a corpus of valid request lines (byte flips, truncations,
// token splices, digit-run extensions) must each get exactly one reply from
// Dispatcher::handle_line: an "OK…" or "ERR …" line with no newline in it,
// never an exception. A reference tokenizer pins which SCORE lines
// parse_request accepts (plain decimal coordinates that fit index_t) and
// what the reply to an accepted one is. And LineFramer, fed a random byte
// stream in random chunks, yields the lines that splitting the stream on
// '\n' gives, and refuses the first line over its cap. The ASan/UBSan
// build is where a read past a token or buffer edge would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_model.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::serve::LineFramer;
using ht::tensor::index_t;

std::shared_ptr<const ht::serve::ServeModel> tiny_model() {
  ht::tensor::CooTensor x =
      ht::tensor::random_zipf({12, 9, 6}, 400, {0.8, 0.8, 0.5}, 31);
  ht::tensor::plant_low_rank_values(x, 2, 0.1, 32);
  ht::core::HooiOptions options;
  options.ranks = {3, 3, 2};
  options.max_iterations = 2;
  return std::make_shared<const ht::serve::ServeModel>(
      ht::core::TuckerModel::from_hooi(x, ht::core::hooi(x, options)));
}

const std::vector<std::string> kCorpus = {
    "PING",       "INFO",          "STATS",
    "RELOAD",     "SHUTDOWN",      "QUIT",
    "SCORE 3 4 5", "SCORE 11 8 5", "  SCORE\t0 0 0\r",
    "SCOREB 3,4,5;1,1,1;0,8,5", "TOPK 3 2 1", "TOPK 11 9 5",
};

// Bytes a flip writes: mostly ones the grammar gives a meaning to.
constexpr char kAlphabet[] = "0123456789 ,;\t\r\n\v+-xeSCOREBTPKIN";
// Tokens a splice inserts: boundaries, signs and other near-misses.
const std::vector<std::string> kTokens = {
    "0",  "4294967295", "4294967296", "18446744073709551617", "+5",
    "-0", "007",        "0x10",       "1e3",                  "SCORE",
    ";",  ",",          std::string("1\0" "2", 3)};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string s) {
    const std::size_t rounds = 1 + pick(3);
    for (std::size_t r = 0; r < rounds; ++r) s = once(std::move(s));
    return s;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

 private:
  std::string once(std::string s) {
    switch (pick(4)) {
      case 0:  // byte flip (or a NUL, or any byte)
        if (!s.empty()) {
          const std::size_t kind = pick(8);
          const char c = kind == 0   ? '\0'
                         : kind == 1 ? static_cast<char>(rng_())
                                     : kAlphabet[pick(sizeof kAlphabet - 1)];
          s[pick(s.size())] = c;
        }
        break;
      case 1:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2:  // token splice: insert a token, or cut one out
        if (pick(2) == 0) {
          s.insert(pick(s.size() + 1), " " + kTokens[pick(kTokens.size())]);
        } else if (const std::size_t sp = s.find(' ', pick(s.size() + 1));
                   sp != std::string::npos) {
          s.erase(sp, s.find(' ', sp + 1) - sp);
        }
        break;
      default:  // digit-run extension
        if (const std::size_t at =
                s.find_first_of("0123456789", pick(s.size() + 1));
            at != std::string::npos) {
          std::string run(1 + pick(12), '0');
          for (char& c : run) c = static_cast<char>('0' + pick(10));
          s.insert(at + 1, run);
        }
        break;
    }
    return s;
  }

  ht::Rng rng_;
};

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::size_t i = s.find_first_not_of(kSpace);
  while (i != std::string_view::npos) {
    const std::size_t end = std::min(s.find_first_of(kSpace, i), s.size());
    out.push_back(s.substr(i, end - i));
    i = s.find_first_not_of(kSpace, end);
  }
  return out;
}

// What parse_request must make of a line starting with SCORE: the
// coordinates when each is 1+ ASCII digits with a value below 2^32,
// nothing otherwise.
std::optional<std::vector<index_t>> reference_score(
    const std::vector<std::string_view>& tokens) {
  if (tokens.size() < 2) return std::nullopt;
  std::vector<index_t> idx;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    std::uint64_t v = 0;
    for (const char c : tokens[t]) {
      if (c < '0' || c > '9') return std::nullopt;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > std::numeric_limits<index_t>::max()) return std::nullopt;
    }
    if (tokens[t].empty()) return std::nullopt;
    idx.push_back(static_cast<index_t>(v));
  }
  return idx;
}

TEST(ServeProtocolFuzzTest, EveryMutantGetsExactlyOneReplyLine) {
  const auto model = tiny_model();
  ht::serve::ModelHandle handle;
  handle.publish(model);
  ht::serve::Dispatcher dispatcher(handle, ht::serve::QueryOptions{});

  Mutator mutate(/*seed=*/2016);
  std::size_t ok = 0, scores_checked = 0;
  constexpr int kMutants = 20000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string line = mutate(kCorpus[mutate.pick(kCorpus.size())]);
    std::string reply;
    try {
      reply = dispatcher.handle_line(line);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "handle_line threw " << e.what() << " on '" << line
                    << "'";
      break;
    }
    EXPECT_TRUE(ht::serve::response_ok(reply) || reply.rfind("ERR ", 0) == 0)
        << "'" << line << "' -> '" << reply << "'";
    EXPECT_EQ(reply.find('\n'), std::string::npos) << "'" << line << "'";
    ok += ht::serve::response_ok(reply) ? 1 : 0;

    const auto tokens = split_ws(line);
    if (tokens.empty() || tokens[0] != "SCORE") continue;
    const auto expected = reference_score(tokens);
    const ht::serve::Request req = ht::serve::parse_request(line);
    ASSERT_EQ(req.type == ht::serve::RequestType::kScore, expected.has_value())
        << "'" << line << "'";
    if (!expected) continue;
    EXPECT_EQ(req.queries.front(), *expected) << "'" << line << "'";
    bool in_range = expected->size() == model->order();
    for (std::size_t n = 0; in_range && n < expected->size(); ++n) {
      in_range = (*expected)[n] < model->dims()[n];
    }
    if (in_range) {
      EXPECT_EQ(reply, ht::serve::format_value(model->score(*expected)))
          << "'" << line << "'";
      ++scores_checked;
    }
    if (HasFailure()) break;
  }
  // Both outcomes occur, and some mutants still score.
  EXPECT_GT(ok, 0u);
  EXPECT_LT(ok, static_cast<std::size_t>(kMutants));
  EXPECT_GT(scores_checked, 0u);
}

void feed(LineFramer& framer, std::string_view bytes) {
  std::memcpy(framer.prepare(bytes.size()).data(), bytes.data(),
              bytes.size());
  framer.commit(bytes.size());
}

std::string_view drop_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

struct Framed {
  std::vector<std::string> lines;
  bool too_long = false;
};

// Splitting on '\n': what LineFramer must produce from any chunking.
Framed split_lines(std::string_view s, std::size_t max_line) {
  Framed f;
  for (std::size_t begin = 0;;) {
    const std::size_t nl = s.find('\n', begin);
    const std::string_view piece =
        s.substr(begin, (nl == std::string_view::npos ? s.size() : nl) - begin);
    if (piece.size() > max_line) {
      f.too_long = true;
      return f;
    }
    if (nl == std::string_view::npos) {
      if (!piece.empty()) f.lines.emplace_back(drop_cr(piece));
      return f;
    }
    f.lines.emplace_back(drop_cr(piece));
    begin = nl + 1;
  }
}

// Feeds `s` through a LineFramer in random chunks, into spans of random
// extra room, as recv() would fill them.
Framed frame_in_chunks(std::string_view s, std::size_t max_line,
                       Mutator& rng) {
  Framed f;
  LineFramer framer(max_line);
  std::string_view line;
  std::size_t at = 0;
  for (;;) {
    auto status = LineFramer::Status::kPartial;
    while ((status = framer.next(line)) == LineFramer::Status::kLine) {
      f.lines.emplace_back(line);
    }
    if (status == LineFramer::Status::kTooLong) {
      f.too_long = true;
      return f;
    }
    if (at == s.size()) break;
    const std::size_t n = std::min(s.size() - at, rng.pick(3) == 0
                                                      ? std::size_t{1}
                                                      : rng.pick(64));
    const auto space = framer.prepare(n + rng.pick(16));
    EXPECT_GE(space.size(), n);
    std::memcpy(space.data(), s.data() + at, n);
    framer.commit(n);
    at += n;
  }
  if (framer.finish(line)) f.lines.emplace_back(line);
  EXPECT_FALSE(framer.finish(line)) << "finish() returned the rest twice";
  return f;
}

TEST(ServeProtocolFuzzTest, RandomChunkingsFrameLikeSplittingOnNewline) {
  Mutator rng(/*seed=*/1606);
  constexpr char kBytes[] = "\n\n\n\r\r abcSCORE 123";
  std::size_t too_long = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string stream(rng.pick(300), '\0');
    for (char& c : stream) {
      c = rng.pick(6) == 0 ? static_cast<char>(rng.pick(256))
                           : kBytes[rng.pick(sizeof kBytes - 1)];
    }
    const std::size_t max_line =
        rng.pick(2) == 0 ? ht::serve::kMaxLineBytes : rng.pick(40);
    const Framed expected = split_lines(stream, max_line);
    const Framed got = frame_in_chunks(stream, max_line, rng);
    ASSERT_EQ(got.too_long, expected.too_long) << "round " << round;
    ASSERT_EQ(got.lines, expected.lines) << "round " << round;
    too_long += expected.too_long ? 1 : 0;
  }
  // The cap is both hit and missed.
  EXPECT_GT(too_long, 0u);
  EXPECT_LT(too_long, 3000u);
}

TEST(LineFramerTest, SplitsLinesAndKeepsThePartialOne) {
  LineFramer framer(/*max_line=*/8);
  std::string_view line;
  feed(framer, "PING\r\nSCO");
  ASSERT_EQ(framer.next(line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "PING");
  EXPECT_EQ(framer.next(line), LineFramer::Status::kPartial);
  feed(framer, "RE 1\n\nQUIT");
  ASSERT_EQ(framer.next(line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "SCORE 1");
  ASSERT_EQ(framer.next(line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "");
  EXPECT_EQ(framer.next(line), LineFramer::Status::kPartial);
  ASSERT_TRUE(framer.finish(line));
  EXPECT_EQ(line, "QUIT");
  EXPECT_FALSE(framer.finish(line));

  // Eight bytes before the newline fit; nine do not, newline or not.
  LineFramer at_cap(8);
  feed(at_cap, "12345678\n123456789");
  ASSERT_EQ(at_cap.next(line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "12345678");
  EXPECT_EQ(at_cap.next(line), LineFramer::Status::kTooLong);
  LineFramer over(8);
  feed(over, "123456789\n");
  EXPECT_EQ(over.next(line), LineFramer::Status::kTooLong);
}

}  // namespace
