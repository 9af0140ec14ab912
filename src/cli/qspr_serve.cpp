// qspr_serve — the fault-tolerant mapping daemon over one shared
// MappingEngine.
//
//   qspr_serve --port 7421 --jobs 4 --mapper-threads 2
//   qspr_serve --port 0 --port-file /tmp/qspr.port   # CI: kernel picks
//
// Protocol: newline-delimited JSON over TCP (see docs/serve.md). Concurrent
// clients multiplex onto the shared engine; overload is shed explicitly
// (`overloaded` + retry_after_ms) by a bounded admission queue; requests may
// carry deadlines and be cancelled mid-flight; SIGTERM/SIGINT drain
// gracefully — stop accepting, answer or cancel what is in flight within
// --drain-ms, flush, exit 0.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "fabric/text_io.hpp"
#include "service/serve_loop.hpp"

namespace {

using namespace qspr;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --host <addr>          bind address (default 127.0.0.1)\n"
      << "  --port <n>             TCP port; 0 = kernel-assigned (default 0)\n"
      << "  --port-file <file>     write the bound port there once listening\n"
      << "  --jobs <n>             engine worker threads for placement "
         "trials\n"
      << "  --mapper-threads <n>   concurrent map requests (default 2)\n"
      << "  --max-queue <n>        admission queue depth; a full queue "
         "rejects\n"
      << "                         with `overloaded` (default 16)\n"
      << "  --max-connections <n>  concurrent clients (default 64)\n"
      << "  --max-frame-bytes <n>  request/response line cap (default 1 MiB)\n"
      << "  --retry-after-ms <n>   floor of the adaptive back-off hint in\n"
      << "                         overload replies (default 50)\n"
      << "  --retry-ceiling-ms <n> ceiling of that hint (default 2000)\n"
      << "  --shard-id <n>         shard index stamped into health/stats\n"
      << "                         replies (set by qspr_shard; default: "
         "unset)\n"
      << "  --drain-ms <n>         graceful-drain budget before in-flight\n"
      << "                         work is cancelled (default 2000)\n"
      << "  --deadline-ms <n>      server-side default per-request deadline\n"
      << "                         (0 = none; requests may set their own)\n"
      << "  --cache-budget-mb <n>  LRU memory budget for the fabric-artifact\n"
      << "                         cache (0 = unlimited, the default);\n"
      << "                         evictions are visible in `stats`\n"
      << "  --fabric <file>        default fabric drawing (default: the\n"
      << "                         paper's 45x85 QUALE fabric); requests may\n"
      << "                         name their own per-record `fabric`\n"
      << "  --mapper <m>           default mapper: qspr | quale | qpos | "
         "baseline\n"
      << "  --placer <p>           default placer: mvfb | mc | center\n"
      << "  --m <n>                default MVFB seeds / MC trials\n"
      << "  --seed <n>             default RNG seed\n"
      << "  --quiet                suppress startup/drain notes on stderr\n"
      << "exit status: 0 clean drain (SIGTERM/SIGINT), 2 usage/setup error\n";
  return 2;
}

// Signal handling: the handler may only do async-signal-safe work, which is
// exactly what request_drain() is (atomic store + pipe write).
MappingServer* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ServeOptions options;
    std::string port_file;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      // Integer value of this option, rejected below `min`.
      const auto next_int = [&](long long min) {
        const long long value = parse_integer(next());
        if (value < min) {
          throw Error(arg + " must be >= " + std::to_string(min));
        }
        return value;
      };
      if (arg == "--host") {
        options.host = next();
      } else if (arg == "--port") {
        const long long port = next_int(0);
        if (port > 65535) throw Error("--port must be in [0, 65535]");
        options.port = static_cast<int>(port);
      } else if (arg == "--port-file") {
        port_file = next();
      } else if (arg == "--jobs") {
        options.workers = static_cast<int>(next_int(1));
      } else if (arg == "--mapper-threads") {
        options.mapper_threads = static_cast<int>(next_int(1));
      } else if (arg == "--max-queue") {
        options.max_queue = static_cast<int>(next_int(1));
      } else if (arg == "--max-connections") {
        options.max_connections = static_cast<int>(next_int(1));
      } else if (arg == "--max-frame-bytes") {
        options.max_frame_bytes = static_cast<std::size_t>(next_int(64));
      } else if (arg == "--retry-after-ms") {
        options.retry_after_ms = static_cast<int>(next_int(0));
      } else if (arg == "--retry-ceiling-ms") {
        options.retry_after_ceiling_ms = static_cast<int>(next_int(0));
      } else if (arg == "--shard-id") {
        options.shard_id = static_cast<int>(next_int(0));
      } else if (arg == "--drain-ms") {
        options.drain_deadline_ms = static_cast<double>(next_int(0));
      } else if (arg == "--deadline-ms") {
        options.default_deadline_ms = static_cast<double>(next_int(0));
      } else if (arg == "--cache-budget-mb") {
        options.cache_budget_bytes = static_cast<std::size_t>(next_int(0))
                                     << 20;
      } else if (arg == "--fabric") {
        options.default_fabric = next();
        parse_fabric_file(options.default_fabric);  // fail fast, not at req 1
      } else if (arg == "--mapper") {
        const std::string name = next();
        const auto kind = mapper_kind_from_name(name);
        if (!kind.has_value()) throw Error("unknown mapper: " + name);
        options.default_options.kind = *kind;
      } else if (arg == "--placer") {
        const std::string name = next();
        const auto placer = placer_kind_from_name(name);
        if (!placer.has_value()) throw Error("unknown placer: " + name);
        options.default_options.placer = *placer;
      } else if (arg == "--m") {
        const int m = static_cast<int>(parse_integer(next()));
        options.default_options.mvfb_seeds = m;
        options.default_options.monte_carlo_trials = m;
      } else if (arg == "--seed") {
        options.default_options.rng_seed =
            static_cast<std::uint64_t>(parse_integer(next()));
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage(argv[0]);
      }
    }

    MappingServer server(std::move(options));
    server.start();
    g_server = &server;
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGINT, handle_drain_signal);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) throw Error("cannot write port file: " + port_file);
      out << server.port() << "\n";
    }
    if (!quiet) {
      std::cerr << "qspr_serve listening on port " << server.port() << "\n";
    }

    const int code = server.serve();
    g_server = nullptr;
    if (!quiet) {
      const ServeMetrics::Snapshot snap = server.metrics();
      std::cerr << "qspr_serve drained: " << snap.completed << " completed, "
                << snap.failed << " failed, " << snap.cancelled
                << " cancelled, " << snap.expired << " expired, "
                << snap.rejected << " shed\n";
    }
    return code;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
