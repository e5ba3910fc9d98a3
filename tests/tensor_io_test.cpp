#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "parallel/thread_info.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"

namespace {

using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    path_ = ::testing::TempDir() + "ht_io_test_" + suffix;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TnsIoTest, ReadsSimpleFile) {
  std::istringstream in(
      "# comment line\n"
      "1 1 1 3.5\n"
      "\n"
      "2 3 4 -1.25\n");
  const CooTensor x = ht::tensor::read_tns(in);
  EXPECT_EQ(x.order(), 3u);
  EXPECT_EQ(x.nnz(), 2u);
  EXPECT_EQ(x.shape(), (Shape{2, 3, 4}));
  EXPECT_DOUBLE_EQ(x.value(0), 3.5);
  EXPECT_EQ(x.index(2, 1), 3u);  // 0-based
}

TEST(TnsIoTest, RespectsExplicitShape) {
  std::istringstream in("1 1 2.0\n");
  const CooTensor x = ht::tensor::read_tns(in, Shape{5, 5});
  EXPECT_EQ(x.shape(), (Shape{5, 5}));
}

TEST(TnsIoTest, RejectsIndexBeyondExplicitShape) {
  std::istringstream in("9 1 2.0\n");
  EXPECT_THROW(ht::tensor::read_tns(in, Shape{5, 5}), ht::IoError);
}

TEST(TnsIoTest, RejectsEmptyFile) {
  std::istringstream in("# nothing\n");
  EXPECT_THROW(ht::tensor::read_tns(in), ht::IoError);
}

TEST(TnsIoTest, RejectsZeroBasedIndices) {
  std::istringstream in("0 1 2.0\n");
  EXPECT_THROW(ht::tensor::read_tns(in), ht::IoError);
}

TEST(TnsIoTest, RejectsInconsistentArity) {
  std::istringstream in(
      "1 1 1 2.0\n"
      "1 1 3.0\n");
  EXPECT_THROW(ht::tensor::read_tns(in), ht::IoError);
}

TEST(TnsIoTest, RejectsFractionalIndices) {
  std::istringstream in("1.5 1 2.0\n");
  EXPECT_THROW(ht::tensor::read_tns(in), ht::IoError);
}

// Regression: indices that do not fit index_t used to be truncated through
// static_cast (2^32 + 1 silently became index 0) instead of raising IoError.
TEST(TnsIoTest, RejectsIndexOverflowingIndexType) {
  std::istringstream in("4294967297 1 2.0\n");  // 2^32 + 1
  EXPECT_THROW(ht::tensor::read_tns(in), ht::IoError);
}

// Regression: indices at or beyond 2^53 lose integer precision in the
// double-based parser; they must be rejected, not rounded and truncated.
TEST(TnsIoTest, RejectsIndexBeyondDoublePrecision) {
  std::istringstream in("9007199254740993 1 2.0\n");  // 2^53 + 1
  EXPECT_THROW(ht::tensor::read_tns(in), ht::IoError);
}

TEST(TnsIoTest, AcceptsLargestRepresentableIndex) {
  // 1-based 2^32 - 1 is the largest index that can also satisfy a shape
  // check (mode sizes are index_t themselves).
  std::istringstream in("4294967295 1 2.0\n");
  const CooTensor x = ht::tensor::read_tns(in, Shape{4294967295u, 1});
  ASSERT_EQ(x.nnz(), 1u);
  EXPECT_EQ(x.index(0, 0), 4294967294u);
}

TEST(TnsIoTest, TextRoundTrip) {
  CooTensor x(Shape{4, 6, 3});
  x.push_back(std::vector<index_t>{0, 5, 2}, 1.5);
  x.push_back(std::vector<index_t>{3, 0, 0}, -2.75);
  std::ostringstream out;
  ht::tensor::write_tns(out, x);
  std::istringstream in(out.str());
  const CooTensor y = ht::tensor::read_tns(in, x.shape());
  ASSERT_EQ(y.nnz(), x.nnz());
  for (ht::tensor::nnz_t t = 0; t < x.nnz(); ++t) {
    for (std::size_t n = 0; n < x.order(); ++n) {
      EXPECT_EQ(y.index(n, t), x.index(n, t));
    }
    EXPECT_DOUBLE_EQ(y.value(t), x.value(t));
  }
}

TEST(TnsIoTest, MissingFileThrows) {
  EXPECT_THROW(ht::tensor::read_tns_file("/nonexistent/path/x.tns"),
               ht::IoError);
}

// A non-finite, hex, partly numeric or out-of-range field, or more fields
// than the order cap allows: each is an IoError naming the line, never a
// tensor of a smaller order or with a cut-short value.
struct Misread {
  const char* name;
  std::string text;
};

void PrintTo(const Misread& m, std::ostream* os) { *os << m.name; }

class TnsRejectTest : public ::testing::TestWithParam<Misread> {};

TEST_P(TnsRejectTest, ThrowsNamingTheLine) {
  std::istringstream in(GetParam().text);
  try {
    (void)ht::tensor::read_tns(in);
    FAIL() << "accepted: " << GetParam().text;
  } catch (const ht::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1:"), std::string::npos)
        << e.what();
  }
}

std::string hundred_fields() {
  std::string line;
  for (int i = 1; i < 100; ++i) line += std::to_string(i) + ' ';
  return line + "1.0\n";
}

std::string misread_name(const ::testing::TestParamInfo<Misread>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    MisreadInputs, TnsRejectTest,
    ::testing::Values(Misread{"NaN", "1 2 3 nan\n"},
                      Misread{"Infinity", "1 2 3 inf\n"},
                      Misread{"Overflow", "1 2 3 1e400\n"},
                      Misread{"Hex", "1 2 3 0x10\n"},
                      Misread{"TrailingJunk", "1 2 3 4.5abc\n"},
                      Misread{"UnderflowToZero", "1 2 3 1e-400\n"},
                      Misread{"HundredFields", hundred_fields()}),
    misread_name);

// Syntax the reader has always accepted and must keep accepting.
TEST(TnsIoTest, AcceptsEstablishedSyntax) {
  struct Case {
    const char* name;
    const char* text;
    Shape shape;
    std::vector<std::vector<index_t>> coords;  // 0-based
    std::vector<double> values;
  };
  const std::vector<Case> cases = {
      {"crlf and tabs", "1\t2\t3\t4.5\r\n2 1 1\t-1\r\n", {2, 2, 3},
       {{0, 1, 2}, {1, 0, 0}}, {4.5, -1}},
      {"plus sign and exponents", "+1 +2 +3 +2.5e2\n1 1 1 -1.5E-3\n",
       {1, 2, 3}, {{0, 1, 2}, {0, 0, 0}}, {250, -1.5e-3}},
      {"real-valued indices", "3.0 3e0 1 7\n", {3, 3, 1}, {{2, 2, 0}}, {7}},
      {"comments", "  # leading spaces\n\t# leading tab\n1 1 1 5 # note\n"
                   "2 2 2 6# note\n",
       {2, 2, 2}, {{0, 0, 0}, {1, 1, 1}}, {5, 6}},
      {"no final newline", "1 1 1 5\n2 2 2 6", {2, 2, 2},
       {{0, 0, 0}, {1, 1, 1}}, {5, 6}},
      {"subnormal value", "1 1 1 1e-310\n", {1, 1, 1}, {{0, 0, 0}},
       {1e-310}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::istringstream in(c.text);
    const CooTensor x = ht::tensor::read_tns(in);
    EXPECT_EQ(x.shape(), c.shape);
    ASSERT_EQ(x.nnz(), c.coords.size());
    for (ht::tensor::nnz_t t = 0; t < x.nnz(); ++t) {
      for (std::size_t n = 0; n < x.order(); ++n) {
        EXPECT_EQ(x.index(n, t), c.coords[t][n]);
      }
      EXPECT_EQ(x.value(t), c.values[t]);
    }
  }
}

// A text big enough to span several parse blocks (256 KiB each in io.cpp).
std::string multi_block_text() {
  const CooTensor x = ht::tensor::random_uniform(Shape{5000, 4000, 3000},
                                                 80000, /*seed=*/21);
  std::ostringstream out;
  ht::tensor::write_tns(out, x);
  std::string text = out.str();
  EXPECT_GE(text.size(), std::size_t{4} << 18);
  return text;
}

void expect_same_tensor(const CooTensor& a, const CooTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t n = 0; n < a.order(); ++n) {
    EXPECT_EQ(std::memcmp(a.indices(n).data(), b.indices(n).data(),
                          a.nnz() * sizeof(index_t)),
              0);
  }
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.nnz() * sizeof(double)),
            0);
}

std::string read_error(const std::string& text, int threads) {
  ht::parallel::ThreadScope scope(threads);
  std::istringstream in(text);
  try {
    (void)ht::tensor::read_tns(in);
  } catch (const ht::IoError& e) {
    return e.what();
  }
  return "no error";
}

TEST(TnsIoTest, ParseIsThreadCountInvariant) {
  const std::string text = multi_block_text();
  std::vector<CooTensor> parsed;
  for (int threads : {1, 2, 4}) {
    ht::parallel::ThreadScope scope(threads);
    std::istringstream in(text);
    parsed.push_back(ht::tensor::read_tns(in));
  }
  EXPECT_EQ(parsed[0].nnz(), 80000u);
  expect_same_tensor(parsed[0], parsed[1]);
  expect_same_tensor(parsed[0], parsed[2]);

  // A bad line in the last block: one message and line number throughout.
  const auto lines = std::count(text.begin(), text.end(), '\n');
  const std::string bad = text + "1 2 3 nan\n";
  const std::string expected =
      "line " + std::to_string(lines + 1) + ": unparsable value 'nan'";
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(read_error(bad, threads), expected) << threads << " threads";
  }

  // Of two bad lines in different blocks, the earlier one is reported.
  std::string two = bad;
  const std::size_t mid = two.find('\n', two.size() / 3) + 1;
  two.insert(mid, "1 2 x 4\n");
  const auto mid_line = std::count(two.begin(), two.begin() + mid, '\n') + 1;
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(read_error(two, threads),
              "line " + std::to_string(mid_line) + ": unparsable index 'x'")
        << threads << " threads";
  }
}

TEST(TnsIoTest, ReadsNamedPipeLikeRegularFile) {
  const std::string text = multi_block_text();
  TempFile regular("pipe_source.tns");
  {
    std::ofstream out(regular.path(), std::ios::binary);
    out << text;
  }
  TempFile fifo("pipe.tns");
  std::remove(fifo.path().c_str());
  ASSERT_EQ(::mkfifo(fifo.path().c_str(), 0600), 0);
  // Opening a FIFO for writing blocks until the reader opens it, and the
  // text overflows the pipe buffer: the two ends really stream.
  std::thread writer([&] {
    std::ofstream out(fifo.path(), std::ios::binary);
    out << text;
  });
  CooTensor from_pipe;
  try {
    from_pipe = ht::tensor::read_tns_file(fifo.path());
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  expect_same_tensor(ht::tensor::read_tns_file(regular.path()), from_pipe);
}

}  // namespace
