// Result plumbing for bench_e2e: order statistics, named metrics, a minimal
// JSON writer, and the span tracer behind `--trace`.
//
// Spans are recorded only on the benchmark's own thread, around calls into
// the library's public API; they are kept in memory and written once when
// the run ends, so an untraced run pays one branch per span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of the finite values of an
/// unsorted sample; NaN when there are none.
inline double quantile(std::vector<double> v, double q) {
  v.erase(std::remove_if(v.begin(), v.end(), [](double x) { return !std::isfinite(x); }),
          v.end());
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// JSON string literal with the escapes the benchmark's strings can need.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Number with all its digits; non-finite values become null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Insertion-ordered JSON object built from pre-rendered values.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named metrics in report order, each with its unit (names are unique).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return std::nan("");
  }
  [[nodiscard]] std::string json() const {
    JsonObject o;
    for (const auto& m : items_) {
      o.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
    }
    return o.dump();
  }
  void print(std::FILE* out, const char* title) const {
    std::fprintf(out, "%s\n", title);
    for (const auto& m : items_) {
      std::fprintf(out, "  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Span recorder: name, parent span, start and end in microseconds since
/// the tracer was created. A layer's self time is its span time minus the
/// time covered by its child spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return {nullptr, -1};
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), now_us(), -1});
    open_.push_back(id);
    return {this, id};
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// {"spans": [...], "self_time_s": {name: seconds}} for `workload`.
  [[nodiscard]] std::string json(const std::string& workload) const {
    std::map<std::string, double> self;
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_us - s.start_us;
    }
    std::string list = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      self[s.name] += (s.end_us - s.start_us - child[i]) * 1e-6;
      if (i) list += ",\n  ";
      list += JsonObject()
                  .str("name", s.name)
                  .str("parent", s.parent >= 0 ? spans_[s.parent].name : "")
                  .num("start_us", s.start_us)
                  .num("end_us", s.end_us)
                  .dump();
    }
    list += "]";
    JsonObject self_json;
    for (const auto& [name, secs] : self) self_json.num(name, secs);
    return JsonObject()
        .str("workload", workload)
        .raw("spans", list)
        .raw("self_time_s", self_json.dump())
        .dump();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  void close(int id) {
    spans_[id].end_us = now_us();
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace bench
