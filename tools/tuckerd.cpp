// tuckerd: the HyperTensor model server.
//
// Serves point-reconstruction and top-k queries from a trained .htb model
// bundle over a newline-delimited text protocol (see serve/protocol.hpp),
// on a unix-domain socket or a loopback TCP port. The bundle is mmap'd
// read-only (zero copy); a background watcher polls the bundle path and
// hot-swaps a new model in without dropping in-flight queries — retrain
// with `tucker_cli ... --save-model model.htb` and the daemon picks it up.
//
//   tuckerd --model model.htb --socket /tmp/tuckerd.sock
//   tuckerd --model model.htb --port 7075
//           --cache-entries 8192 --reload-interval 2.0
//
// Query it with `tucker_cli --query /tmp/tuckerd.sock "SCORE 3 17 5"` or
// anything that can write lines to a socket (nc, socat).
//
// Numeric flags take a whole number token in range: --port 0..65535 (0
// binds a free port), --cache-entries >= 0 (0 disables the cache),
// --reload-interval in (0, 1e9] seconds. Anything else exits 2 with the
// usage message.
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>

#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
#include "serve/net.hpp"
#include "util/parse.hpp"
#include "util/version.hpp"

#if !HT_HAVE_SOCKETS
int main() {
  std::fprintf(stderr, "tuckerd requires POSIX sockets\n");
  return 1;
}
#else

namespace {

struct Options {
  std::string model_path;
  std::string socket_path;
  int port = -1;
  std::size_t cache_entries = 4096;
  double reload_interval = 2.0;
  bool verify = true;
  bool print_port = false;
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: tuckerd --model FILE.htb (--socket PATH | --port N)\n"
               "               [--cache-entries N]\n"
               "               [--reload-interval SECONDS] [--no-verify]\n"
               "               [--print-port]\n"
               "\n"
               "Serves SCORE/SCOREB/TOPK/INFO/STATS/RELOAD/SHUTDOWN requests\n"
               "(one per line) against a Tucker model bundle. The bundle is\n"
               "mmap'd zero-copy and re-read automatically when the file\n"
               "changes; --port 0 binds a free port (use --print-port).\n"
               "Ranges: --port 0..65535, --cache-entries >= 0,\n"
               "--reload-interval in (0, 1e9].\n");
}

// The value of `flag` in [lo, hi], or exit 2 with the usage message.
template <typename T>
T number_or_exit(const std::string& flag, const char* text, T lo, T hi) {
  const std::optional<T> value = ht::parse_number<T>(text, lo, hi);
  if (!value) {
    std::fprintf(stderr, "tuckerd: bad value '%s' for %s\n", text,
                 flag.c_str());
    usage(stderr);
    std::exit(2);
  }
  return *value;
}

// SHUTDOWN is handled on a connection thread, but SocketServer::shutdown()
// joins the connection threads — so the request only signals the main
// thread, which does the actual teardown after serve_async keeps running
// long enough to write the "OK bye" response.
std::mutex g_mutex;
std::condition_variable g_cv;
bool g_shutdown = false;

void request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_shutdown = true;
  }
  g_cv.notify_all();
}

void on_signal(int) { request_shutdown(); }

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tuckerd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--model") {
      opt.model_path = next();
    } else if (arg == "--socket") {
      opt.socket_path = next();
    } else if (arg == "--port") {
      opt.port = number_or_exit(arg, next(), 0, 65535);
    } else if (arg == "--cache-entries") {
      opt.cache_entries = number_or_exit<std::size_t>(
          arg, next(), 0, std::numeric_limits<std::size_t>::max());
    } else if (arg == "--reload-interval") {
      // Past 1e9 s the watcher's wait overflows the clock's nanosecond
      // count and it polls without waiting.
      opt.reload_interval = number_or_exit(
          arg, next(), std::numeric_limits<double>::min(), 1e9);
    } else if (arg == "--no-verify") {
      opt.verify = false;
    } else if (arg == "--print-port") {
      opt.print_port = true;
    } else if (arg == "--version") {
      std::printf("tuckerd %s (%s)\n", ht::kVersion, ht::kGitHash);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "tuckerd: unknown flag '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (opt.model_path.empty() ||
      (opt.socket_path.empty() && opt.port < 0)) {
    usage(stderr);
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    ht::serve::ModelHandle handle;
    handle.load_and_publish(opt.model_path, opt.verify);
    {
      auto snap = handle.snapshot();
      std::fprintf(stderr,
                   "tuckerd: serving %s (order %zu, fit %.4f, %s)\n",
                   opt.model_path.c_str(), snap->order(), snap->fit(),
                   snap->is_view() ? "mmap" : "heap");
    }
    handle.start_watch(opt.model_path, opt.reload_interval, opt.verify);

    ht::serve::QueryOptions qopt;
    qopt.cache_entries = opt.cache_entries;
    ht::serve::DispatcherHooks hooks;
    hooks.reload = [&handle, &opt] {
      handle.load_and_publish(opt.model_path, opt.verify);
    };
    hooks.shutdown = request_shutdown;
    ht::serve::Dispatcher dispatcher(handle, qopt, hooks);

    ht::serve::SocketServer server;
    if (!opt.socket_path.empty()) {
      server.listen_unix(opt.socket_path);
      std::fprintf(stderr, "tuckerd: listening on %s\n",
                   opt.socket_path.c_str());
    } else {
      server.listen_tcp(opt.port);
      std::fprintf(stderr, "tuckerd: listening on 127.0.0.1:%d\n",
                   server.port());
      if (opt.print_port) {
        std::printf("%d\n", server.port());
        std::fflush(stdout);
      }
    }
    server.serve_async(
        [&dispatcher](const std::string& line) {
          return dispatcher.handle_line(line);
        });

    {
      std::unique_lock<std::mutex> lock(g_mutex);
      g_cv.wait(lock, [] { return g_shutdown; });
    }
    std::fprintf(stderr, "tuckerd: shutting down\n");
    server.shutdown();
    handle.stop_watch();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tuckerd: %s\n", e.what());
    return 1;
  }
  return 0;
}

#endif  // HT_HAVE_SOCKETS
