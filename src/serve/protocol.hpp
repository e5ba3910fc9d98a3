// tuckerd wire protocol: newline-delimited text requests and responses.
//
// One request per line; one response line per request. Responses start with
// "OK" or "ERR". Values are printed with %.17g, so a double round-trips the
// wire bit-exactly.
//
//   PING                         -> OK pong
//   INFO                         -> OK epoch=3 order=3 dims=600x240x32
//                                   ranks=10x10x10 fit=0.412003 view=mmap
//   SCORE i0 i1 ... i{N-1}       -> OK <value>
//   SCOREB i,i,i;i,i,i;...       -> OK <v1> <v2> ...        (batched)
//   TOPK entity k [rest...]      -> OK item:score item:score ...
//   STATS                        -> OK epoch=3 reloads=2 hits=10 misses=4
//                                   evictions=0 cached=4
//   RELOAD                       -> OK epoch=4           (force reload now)
//   SHUTDOWN                     -> OK bye               (daemon exits)
//   QUIT                         -> OK bye               (connection closes)
//
// Framing, parsing and formatting are plain code so the daemon, the
// tucker_cli client mode, and the unit tests share one implementation
// without touching sockets.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/query_engine.hpp"
#include "tensor/types.hpp"

namespace ht::serve {

enum class RequestType {
  kPing,
  kInfo,
  kScore,
  kScoreBatch,
  kTopk,
  kStats,
  kReload,
  kShutdown,
  kQuit,
  kInvalid,
};

struct Request {
  RequestType type = RequestType::kInvalid;
  /// kScore: one entry; kScoreBatch: one entry per ';' group.
  std::vector<std::vector<index_t>> queries;
  index_t entity = 0;       // kTopk
  std::size_t k = 0;        // kTopk
  std::vector<index_t> rest;  // kTopk fixed coordinates
  std::string error;        // kInvalid: why parsing failed
};

/// Parse one request line (leading/trailing whitespace ignored). Never
/// throws; malformed input yields kInvalid with `error` set. Coordinates
/// are plain decimal digits (no sign, no embedded NUL) up to 2^32 - 1.
[[nodiscard]] Request parse_request(std::string_view line);

[[nodiscard]] std::string format_value(double v);
[[nodiscard]] std::string format_scores(std::span<const double> values);
[[nodiscard]] std::string format_topk(std::span<const Scored> items);
[[nodiscard]] std::string format_err(const std::string& message);

/// True when a response line indicates success.
[[nodiscard]] bool response_ok(const std::string& response);

/// Longest request line a server accepts: bytes before the '\n'. A longer
/// line, or that many bytes with no newline, is answered with one
/// "ERR request line too long" and the connection closes. This also bounds
/// a SCOREB batch.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Newline framing of a byte stream, behind both the server's connection
/// loop and the query_lines client. Bytes are read straight into the buffer
/// (prepare, then commit); next() hands out each complete line once,
/// without its '\n' and one trailing '\r'. Each byte is scanned for '\n'
/// once, and consumed lines are dropped by one move in prepare() rather than
/// erased one at a time. A returned line stays valid until prepare().
class LineFramer {
 public:
  enum class Status { kLine, kPartial, kTooLong };

  explicit LineFramer(std::size_t max_line = kMaxLineBytes)
      : max_line_(max_line) {}

  /// Writable space of at least `n` bytes after the buffered data.
  [[nodiscard]] std::span<char> prepare(std::size_t n);
  /// The first `n` bytes of the last prepare() span hold new data.
  void commit(std::size_t n);

  /// kLine with the next complete line; kPartial when no complete line is
  /// buffered; kTooLong once the pending line exceeds max_line bytes.
  Status next(std::string_view& line);
  /// At end of stream, after next() returned kPartial: the unterminated
  /// rest as a final line; false when nothing is buffered.
  bool finish(std::string_view& line);

 private:
  std::string buf_;          // [0, size_) holds received bytes
  std::size_t size_ = 0;
  std::size_t begin_ = 0;    // start of the first unconsumed line
  std::size_t scanned_ = 0;  // [begin_, scanned_) holds no '\n'
  std::size_t max_line_;
};

}  // namespace ht::serve
