// Seeded mutation smoke test for the .tns text reader.
//
// Mutants of a small corpus (byte flips, truncations, line splices and
// digit-run extensions) must each either parse to a well-formed tensor or
// throw ht::Error: no crash, no other exception type, and no tensor that
// breaks the reader's own guarantees. The ASan/UBSan build is where a read
// past a line or block edge would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/thread_info.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"
#include "util/random.hpp"

namespace {

using ht::tensor::CooTensor;
using ht::tensor::Shape;

std::string written(const CooTensor& x) {
  std::ostringstream out;
  ht::tensor::write_tns(out, x);
  return out.str();
}

std::vector<std::string> corpus() {
  return {
      "# comment line\n1 1 1 3.5\n\n2 3 4 -1.25\n",
      "1\t2\t3\t4\t1e-3\r\n4 3 2 1 +2.5E2\r\n",
      "  # lead\n3.0 3e0 1.5e-310\n1 2 7 # note\n2 1 -0",
      "1 2.0\n7 -3e-5\n",
      written(ht::tensor::random_uniform(Shape{9, 7, 5}, 40, /*seed=*/3)),
  };
}

// Bytes a flip writes: mostly ones the grammar gives a meaning to.
constexpr char kAlphabet[] = "0123456789 \t\r\n#.eE+-xnaifNI\x7f";

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string s) {
    const std::size_t rounds = 1 + pick(3);
    for (std::size_t r = 0; r < rounds; ++r) s = once(std::move(s));
    return s;
  }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  std::string once(std::string s) {
    switch (pick(4)) {
      case 0:  // byte flip
        if (!s.empty()) {
          s[pick(s.size())] = pick(4) == 0
                                  ? static_cast<char>(rng_())
                                  : kAlphabet[pick(sizeof kAlphabet - 1)];
        }
        break;
      case 1:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2:  // line splice: copy a line to another line start, or join two
        if (s.empty()) break;
        if (pick(2) == 0) {
          const std::size_t from = line_start(s, pick(s.size() + 1));
          const std::size_t to = line_start(s, pick(s.size() + 1));
          const std::size_t eol = std::min(s.find('\n', from), s.size() - 1);
          s.insert(to, s.substr(from, eol + 1 - from));
        } else if (const std::size_t nl = s.find('\n', pick(s.size() + 1));
                   nl != std::string::npos) {
          s.erase(nl, 1);
        }
        break;
      default:  // digit-run extension
        if (const std::size_t at = s.find_first_of("0123456789", pick(s.size() + 1));
            at != std::string::npos) {
          std::string run(1 + pick(40), '0');
          for (char& c : run) c = static_cast<char>('0' + pick(10));
          s.insert(at + 1, run);
        }
        break;
    }
    return s;
  }

  static std::size_t line_start(const std::string& s, std::size_t pos) {
    if (pos == 0 || s.empty()) return 0;
    const std::size_t nl = s.rfind('\n', std::min(pos, s.size()) - 1);
    return nl == std::string::npos ? 0 : nl + 1;
  }

  ht::Rng rng_;
};

// The tensor, or nothing when the reader threw ht::Error. Any other
// exception fails the test.
std::optional<CooTensor> parse(const std::string& text, const Shape& shape,
                               std::string* error = nullptr) {
  std::istringstream in(text);
  try {
    return ht::tensor::read_tns(in, shape);
  } catch (const ht::Error& e) {
    if (error != nullptr) *error = e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ht::Error exception: " << e.what() << "\non:\n"
                  << text;
  }
  return std::nullopt;
}

// What the reader promises of any tensor it returns.
void expect_well_formed(const CooTensor& x, const std::string& text,
                        const Shape& declared) {
  ASSERT_GE(x.order(), 1u) << text;
  ASSERT_LE(x.order(), 16u) << text;
  if (!declared.empty()) {
    EXPECT_EQ(x.shape(), declared) << text;
  }
  EXPECT_NO_THROW(x.validate()) << text;
  EXPECT_LE(x.nnz(), static_cast<std::size_t>(
                         std::count(text.begin(), text.end(), '\n') + 1))
      << text;
  for (double v : x.values()) EXPECT_TRUE(std::isfinite(v)) << text;
}

TEST(TnsIoFuzzTest, MutantsParseOrThrowHtError) {
  const std::vector<std::string> bases = corpus();
  std::vector<Shape> shapes;
  for (const std::string& b : bases) {
    const auto x = parse(b, {});
    ASSERT_TRUE(x.has_value()) << b;
    shapes.push_back(x->shape());
  }

  Mutator mutate(/*seed=*/2016);
  ht::Rng which(7);
  std::size_t parsed = 0;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    const std::size_t b = static_cast<std::size_t>(which() % bases.size());
    const std::string text = mutate(bases[b]);
    for (const Shape& shape : {Shape{}, shapes[b]}) {
      if (const auto x = parse(text, shape)) {
        expect_well_formed(*x, text, shape);
        ++parsed;
      }
    }
    if (HasFailure()) break;
  }
  // Both outcomes occur, so the mutations neither all break nor all miss.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 2u * kMutants);
}

// Mutants of a text spanning several parse blocks: the outcome, a tensor or
// an error message, must not depend on the thread count.
TEST(TnsIoFuzzTest, MultiBlockMutantsAreThreadCountInvariant) {
  const std::string base = written(
      ht::tensor::random_uniform(Shape{500, 400, 300}, 30000, /*seed=*/5));
  Mutator mutate(/*seed=*/1606);
  for (int i = 0; i < 24; ++i) {
    const std::string text = mutate(base);
    std::string error[2];
    std::optional<CooTensor> x[2];
    for (int k = 0; k < 2; ++k) {
      ht::parallel::ThreadScope scope(k == 0 ? 1 : 4);
      x[k] = parse(text, {}, &error[k]);
    }
    ASSERT_EQ(x[0].has_value(), x[1].has_value());
    if (!x[0]) {
      EXPECT_EQ(error[0], error[1]);
      continue;
    }
    expect_well_formed(*x[0], text, {});
    ASSERT_EQ(x[0]->shape(), x[1]->shape());
    ASSERT_EQ(x[0]->nnz(), x[1]->nnz());
    for (std::size_t n = 0; n < x[0]->order(); ++n) {
      EXPECT_TRUE(std::equal(x[0]->indices(n).begin(), x[0]->indices(n).end(),
                             x[1]->indices(n).begin()));
    }
    EXPECT_TRUE(std::equal(x[0]->values().begin(), x[0]->values().end(),
                           x[1]->values().begin()));
  }
}

}  // namespace
