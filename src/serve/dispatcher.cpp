#include "serve/dispatcher.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace ht::serve {

Dispatcher::Dispatcher(ModelHandle& handle, QueryOptions options,
                       DispatcherHooks hooks)
    : handle_(handle), options_(options), hooks_(std::move(hooks)) {}

std::shared_ptr<QueryEngine> Dispatcher::engine() {
  const std::uint64_t epoch = handle_.epoch();
  std::lock_guard<std::mutex> lock(mutex_);
  if (engine_ == nullptr || engine_epoch_ != epoch) {
    auto snap = handle_.snapshot();
    if (snap == nullptr) return nullptr;
    engine_ = std::make_shared<QueryEngine>(std::move(snap), options_);
    engine_epoch_ = epoch;
  }
  return engine_;
}

std::string Dispatcher::handle_line(const std::string& line) {
  const Request req = parse_request(line);
  try {
    switch (req.type) {
      case RequestType::kInvalid:
        return format_err(req.error);
      case RequestType::kPing:
        return "OK pong";
      case RequestType::kQuit:
      case RequestType::kShutdown:
        if (req.type == RequestType::kShutdown) {
          if (!hooks_.shutdown) return format_err("shutdown not available");
          hooks_.shutdown();
        }
        return "OK bye";
      case RequestType::kReload: {
        if (!hooks_.reload) return format_err("reload not available");
        hooks_.reload();
        char buf[48];
        std::snprintf(buf, sizeof buf, "OK epoch=%llu",
                      static_cast<unsigned long long>(handle_.epoch()));
        return buf;
      }
      case RequestType::kInfo: {
        auto eng = engine();
        if (eng == nullptr) return format_err("no model published");
        const ServeModel& m = eng->model();
        std::string dims, ranks;
        for (std::size_t n = 0; n < m.order(); ++n) {
          if (n) { dims += 'x'; ranks += 'x'; }
          dims += std::to_string(m.dims()[n]);
          ranks += std::to_string(m.ranks()[n]);
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "OK epoch=%llu order=%zu dims=%s ranks=%s fit=%.6f"
                      " view=%s",
                      static_cast<unsigned long long>(handle_.epoch()),
                      m.order(), dims.c_str(), ranks.c_str(), m.fit(),
                      m.is_view() ? "mmap" : "heap");
        return buf;
      }
      case RequestType::kStats: {
        auto eng = engine();
        if (eng == nullptr) return format_err("no model published");
        const CacheStats s = eng->cache_stats();
        char buf[192];
        std::snprintf(
            buf, sizeof buf,
            "OK epoch=%llu reloads=%llu hits=%llu misses=%llu"
            " evictions=%llu capacity=%zu",
            static_cast<unsigned long long>(handle_.epoch()),
            static_cast<unsigned long long>(handle_.reloads()),
            static_cast<unsigned long long>(s.hits),
            static_cast<unsigned long long>(s.misses),
            static_cast<unsigned long long>(s.evictions),
            eng->options().cache_entries);
        return buf;
      }
      case RequestType::kScore: {
        auto eng = engine();
        if (eng == nullptr) return format_err("no model published");
        const auto& idx = req.queries[0];
        if (idx.size() != eng->model().order()) {
          return format_err("need " + std::to_string(eng->model().order()) +
                            " coordinates");
        }
        for (std::size_t n = 0; n < idx.size(); ++n) {
          if (idx[n] >= eng->model().dims()[n]) {
            return format_err("coordinate " + std::to_string(n) +
                              " out of range");
          }
        }
        return format_value(eng->score(idx));
      }
      case RequestType::kScoreBatch: {
        auto eng = engine();
        if (eng == nullptr) return format_err("no model published");
        for (const auto& idx : req.queries) {
          if (idx.size() != eng->model().order()) {
            return format_err("every query needs " +
                              std::to_string(eng->model().order()) +
                              " coordinates");
          }
          for (std::size_t n = 0; n < idx.size(); ++n) {
            if (idx[n] >= eng->model().dims()[n]) {
              return format_err("coordinate out of range");
            }
          }
        }
        return format_scores(eng->score_batch(req.queries));
      }
      case RequestType::kTopk: {
        auto eng = engine();
        if (eng == nullptr) return format_err("no model published");
        const ServeModel& m = eng->model();
        if (req.entity >= m.dims()[kEntityMode]) {
          return format_err("entity out of range");
        }
        if (req.rest.size() != m.order() - 2) {
          return format_err("TOPK needs " + std::to_string(m.order() - 2) +
                            " fixed coordinates");
        }
        // The fixed coordinates are those of modes 2..N-1.
        for (std::size_t r = 0; r < req.rest.size(); ++r) {
          if (req.rest[r] >= m.dims()[r + 2]) {
            return format_err("fixed coordinate out of range");
          }
        }
        return format_topk(eng->topk(req.entity, req.k, req.rest));
      }
    }
  } catch (const std::exception& e) {
    return format_err(e.what());
  }
  return format_err("unhandled request");
}

}  // namespace ht::serve
