#include "serve/model_handle.hpp"

#include <sys/stat.h>

#include <chrono>

#include "util/error.hpp"

namespace ht::serve {

std::shared_ptr<const ServeModel> ModelHandle::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_;
}

void ModelHandle::publish(std::shared_ptr<const ServeModel> model) {
  HT_CHECK_MSG(model != nullptr, "cannot publish a null model");
  std::shared_ptr<const ServeModel> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    old = std::move(model_);  // dropped outside the lock
    model_ = std::move(model);
    last_error_.clear();
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  // `old` goes out of scope here; if this was the last reference the old
  // bundle arena (mmap) is released now, otherwise when the final
  // in-flight reader drops its snapshot.
}

void ModelHandle::validate_against_current(const ServeModel& incoming) const {
  // ServeModel's constructor already validated internal shape agreement;
  // here we check the swap makes sense against what is being served.
  std::shared_ptr<const ServeModel> current = snapshot();
  if (current == nullptr) return;
  HT_CHECK_MSG(incoming.order() == current->order(),
               "refusing hot swap: model order changed from "
                   << current->order() << " to " << incoming.order());
  HT_CHECK_MSG(!incoming.model().provenance.empty(),
               "refusing hot swap: bundle carries no provenance");
}

void ModelHandle::load_and_publish(const std::string& path, bool verify) {
  auto incoming = ServeModel::load(path, verify);
  validate_against_current(*incoming);
  publish(std::move(incoming));
}

ModelHandle::FileSig ModelHandle::file_signature(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return {};
  FileSig sig;
  sig.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 st.st_mtim.tv_nsec;
  sig.size = static_cast<std::uint64_t>(st.st_size);
  sig.inode = static_cast<std::uint64_t>(st.st_ino);
  return sig;
}

void ModelHandle::start_watch(const std::string& path, double interval_s,
                              bool verify) {
  if (!(interval_s > 0.0 && interval_s <= kMaxWatchIntervalSeconds)) {
    throw InvalidArgument("watch interval must be in (0, 1e9] seconds");
  }
  if (watcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    stop_ = false;
  }
  // Baseline signature taken HERE, not on the watcher thread: any file
  // replacement after start_watch() returns is guaranteed to be seen,
  // even one racing the thread's startup.
  const FileSig last = file_signature(path);
  watcher_ = std::thread(&ModelHandle::watch_loop, this, path, interval_s,
                         verify, last);
}

void ModelHandle::stop_watch() {
  if (!watcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    stop_ = true;
  }
  watch_cv_.notify_all();
  watcher_.join();
}

void ModelHandle::watch_loop(std::string path, double interval_s,
                             bool verify, FileSig last) {
  const auto interval = std::chrono::duration<double>(interval_s);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watch_mutex_);
      if (watch_cv_.wait_for(lock, interval, [&] { return stop_; })) return;
    }
    const FileSig sig = file_signature(path);
    if (sig == last || sig.mtime_ns < 0) continue;
    // Bundle writes are atomic (tmp + rename), so a changed signature
    // means a complete file — but the publish can still be rejected by
    // validation, in which case the old model keeps serving.
    try {
      load_and_publish(path, verify);
      reloads_.fetch_add(1, std::memory_order_relaxed);
      last = sig;
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      last_error_ = e.what();
      last = sig;  // don't retry the same bad file every tick
    }
  }
}

std::string ModelHandle::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_error_;
}

}  // namespace ht::serve
