#include "serve/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>

namespace ht::serve {

namespace {

// The C locale's isspace set, without the locale lookup.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

// A whole token of decimal digits that fits index_t: from_chars takes no
// sign, no leading space, and does not stop at an embedded NUL.
bool parse_index(std::string_view s, index_t& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

Request invalid(const std::string& why) {
  Request r;
  r.type = RequestType::kInvalid;
  r.error = why;
  return r;
}

Request bad_token(const char* what, std::string_view token) {
  return invalid(std::string(what) + " '" + std::string(token) + "'");
}

}  // namespace

Request parse_request(std::string_view line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return invalid("empty request");
  const std::string_view cmd = tokens[0];
  Request r;

  if (cmd == "PING") {
    r.type = RequestType::kPing;
  } else if (cmd == "INFO") {
    r.type = RequestType::kInfo;
  } else if (cmd == "STATS") {
    r.type = RequestType::kStats;
  } else if (cmd == "RELOAD") {
    r.type = RequestType::kReload;
  } else if (cmd == "SHUTDOWN") {
    r.type = RequestType::kShutdown;
  } else if (cmd == "QUIT") {
    r.type = RequestType::kQuit;
  } else if (cmd == "SCORE") {
    if (tokens.size() < 2) return invalid("SCORE needs coordinates");
    std::vector<index_t> idx;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      index_t v = 0;
      if (!parse_index(tokens[t], v)) {
        return bad_token("bad coordinate", tokens[t]);
      }
      idx.push_back(v);
    }
    r.type = RequestType::kScore;
    r.queries.push_back(std::move(idx));
  } else if (cmd == "SCOREB") {
    if (tokens.size() != 2) {
      return invalid("SCOREB needs one i,i,..;i,i,.. argument");
    }
    const std::string_view arg = tokens[1];
    std::vector<index_t> idx;
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= arg.size(); ++i) {
      const char c = i < arg.size() ? arg[i] : ';';
      if (c != ',' && c != ';') continue;
      const std::string_view cur = arg.substr(begin, i - begin);
      index_t v = 0;
      if (!parse_index(cur, v)) return bad_token("bad coordinate", cur);
      idx.push_back(v);
      begin = i + 1;
      if (c == ';') {
        r.queries.push_back(std::move(idx));
        idx.clear();
      }
    }
    if (r.queries.empty()) return invalid("SCOREB got no queries");
    r.type = RequestType::kScoreBatch;
  } else if (cmd == "TOPK") {
    if (tokens.size() < 3) return invalid("TOPK needs entity and k");
    index_t entity = 0;
    if (!parse_index(tokens[1], entity)) {
      return bad_token("bad entity", tokens[1]);
    }
    index_t k = 0;
    if (!parse_index(tokens[2], k) || k == 0) {
      return bad_token("bad k", tokens[2]);
    }
    for (std::size_t t = 3; t < tokens.size(); ++t) {
      index_t v = 0;
      if (!parse_index(tokens[t], v)) {
        return bad_token("bad coordinate", tokens[t]);
      }
      r.rest.push_back(v);
    }
    r.type = RequestType::kTopk;
    r.entity = entity;
    r.k = k;
  } else {
    return bad_token("unknown command", cmd);
  }
  return r;
}

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "OK %.17g", v);
  return buf;
}

std::string format_scores(std::span<const double> values) {
  std::string out = "OK";
  char buf[40];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.17g", v);
    out += buf;
  }
  return out;
}

std::string format_topk(std::span<const Scored> items) {
  std::string out = "OK";
  char buf[64];
  for (const Scored& s : items) {
    std::snprintf(buf, sizeof buf, " %u:%.17g", s.item, s.score);
    out += buf;
  }
  return out;
}

std::string format_err(const std::string& message) {
  std::string out = "ERR ";
  for (const char c : message) out += c == '\n' ? ' ' : c;
  return out;
}

bool response_ok(const std::string& response) {
  return response.rfind("OK", 0) == 0 &&
         (response.size() == 2 || response[2] == ' ');
}

namespace {

std::string_view drop_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

std::span<char> LineFramer::prepare(std::size_t n) {
  if (begin_ > 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, size_ - begin_);
    size_ -= begin_;
    scanned_ -= begin_;
    begin_ = 0;
  }
  if (buf_.size() < size_ + n) buf_.resize(size_ + n);
  return {buf_.data() + size_, buf_.size() - size_};
}

void LineFramer::commit(std::size_t n) { size_ += n; }

LineFramer::Status LineFramer::next(std::string_view& line) {
  const char* base = buf_.data();
  const void* nl = std::memchr(base + scanned_, '\n', size_ - scanned_);
  if (nl == nullptr) {
    scanned_ = size_;
    return size_ - begin_ > max_line_ ? Status::kTooLong : Status::kPartial;
  }
  const auto end =
      static_cast<std::size_t>(static_cast<const char*>(nl) - base);
  if (end - begin_ > max_line_) return Status::kTooLong;
  line = drop_cr({base + begin_, end - begin_});
  begin_ = scanned_ = end + 1;
  return Status::kLine;
}

bool LineFramer::finish(std::string_view& line) {
  if (begin_ == size_) return false;
  line = drop_cr({buf_.data() + begin_, size_ - begin_});
  begin_ = scanned_ = size_;
  return true;
}

}  // namespace ht::serve
