// serve_sessions: qspr_serve on loopback, driven by one client process in a
// closed loop (each connection sends its next request only after the reply
// to the previous one). Connections take scripts from one deterministic
// sequence: sessions on a paper encoder or a random circuit (open, full
// map, qasm_append edits, exact resubmission, close) interleaved with
// stateless maps of random circuits, a share of them exact repeats.
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "common/executor.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fabric/quale_fabric.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "qecc/codes.hpp"
#include "qecc/random_circuit.hpp"
#include "serve_client.hpp"
#include "service/request_codec.hpp"
#include "service/shard_client.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

enum class Kind { Stateless, Repeat, SessionFirst, Edit, Resubmit };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Stateless: return "stateless";
    case Kind::Repeat: return "repeat";
    case Kind::SessionFirst: return "session_first";
    case Kind::Edit: return "edit";
    case Kind::Resubmit: return "resubmit";
  }
  return "?";
}

/// A distinct (program text, seed, session) request: what the in-process
/// correctness check maps once, however often the server saw it.
struct UniqueRequest {
  std::string qasm;
  std::uint64_t seed = 0;
  bool session = false;
};

struct ScriptedMap {
  Kind kind = Kind::Stateless;
  /// Sent text: the full program, or for an edit only the appended lines.
  std::string text;
  std::uint64_t seed = 0;
  std::size_t unique = 0;
};

struct Script {
  bool session = false;
  std::vector<ScriptedMap> maps;
};

/// The deterministic script sequence of one workload seed. The repository
/// holds no record of real traffic, so the mix is synthetic. It is fixed by
/// position so every seed (and every run length) sees the same
/// proportions, and each choice has this reason:
///  * every third script is a session (open, full map, kEdits edits, exact
///    resubmit, close): sessions then send 5 of every 7 maps, so edits and
///    resubmits, the only requests that reach warm starts and the forced
///    PathFinder diagnostic, each get a median's worth of samples in one
///    run, while stateless maps still make up 2 of 7;
///  * every third session is on a paper encoder (Table 2 order), the rest
///    on random circuits: the paper's circuits stay in the mix without
///    their larger maps taking over the run's time;
///  * every fourth stateless map is an exact repeat of an earlier one: the
///    result cache sees hits while insertions still outnumber them, so its
///    writes are measured beside its reads;
///  * kEdits = 3 edits per session, so warm starts chain from a warm result
///    and not only from the cold first map;
///  * an edit appends 1, 2 or 4 gates: the edit distances at which the
///    incremental_remap suite of bench_runner records warm-start wins (it
///    records a loss at 8), and each appended gate adds at most one net;
///  * random circuits have 6-12 qubits and 30-80 gates, near the paper
///    encoders' 5-23 qubits and 12-67 gates but at the small end in qubits,
///    so a map at m = 4 takes tens of milliseconds and the service layers
///    carry a real share of the time.
/// The measured shares are reported in the detail record. The seed chooses
/// the circuits, edits and per-request mapper seeds. Script i depends only
/// on the seed, i, and earlier scripts, so every run of a seed sends the
/// same requests in the same order, whichever connection ends up sending
/// them.
class ScriptSource {
 public:
  explicit ScriptSource(std::uint64_t seed) : seed_(seed) {}

  Script next() {
    const std::uint64_t index = next_index_++;
    qspr::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + index);
    Script script;
    if (index % 3 == 0) {
      const std::uint64_t session = index / 3;
      const std::vector<qspr::PaperNumbers>& paper = qspr::paper_benchmarks();
      script.session = true;
      const std::uint64_t seed = request_seed(rng);
      std::string current =
          session % 3 == 0
              ? qspr::write_qasm(qspr::make_encoder(
                    paper[(session / 3) % paper.size()].code))
              : random_circuit(rng);
      const int qubits =
          static_cast<int>(qspr::parse_qasm(current).qubit_count());
      script.maps.push_back(
          {Kind::SessionFirst, current, seed, add_unique(current, seed, true)});
      for (int e = 0; e < kEdits; ++e) {
        const std::string append = random_gates(rng, qubits);
        // The server concatenates exactly this way (serve_loop.cpp).
        current += "\n" + append;
        script.maps.push_back(
            {Kind::Edit, append, seed, add_unique(current, seed, true)});
      }
      script.maps.push_back(
          {Kind::Resubmit, current, seed, add_unique(current, seed, true)});
      return script;
    }
    if (stateless_++ % 4 == 3 && !fresh_.empty()) {
      const std::size_t unique = fresh_[rng.uniform_index(fresh_.size())];
      script.maps.push_back(
          {Kind::Repeat, uniques_[unique].qasm, uniques_[unique].seed, unique});
      return script;
    }
    const std::uint64_t seed = request_seed(rng);
    const std::string text = random_circuit(rng);
    const std::size_t unique = add_unique(text, seed, false);
    fresh_.push_back(unique);
    script.maps.push_back({Kind::Stateless, text, seed, unique});
    return script;
  }

  [[nodiscard]] const std::vector<UniqueRequest>& uniques() const {
    return uniques_;
  }

 private:
  static std::uint64_t request_seed(qspr::Rng& rng) {
    return static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
  }

  static std::string random_circuit(qspr::Rng& rng) {
    qspr::RandomCircuitOptions options;
    options.qubits = rng.uniform_int(6, 12);
    options.gates = rng.uniform_int(30, 80);
    return qspr::write_qasm(qspr::make_random_circuit(options, rng));
  }

  /// 1, 2 or 4 gate lines over qubits q0..q{qubits-1} (both the encoders
  /// and the random circuits name their qubits that way).
  static std::string random_gates(qspr::Rng& rng, int qubits) {
    std::string lines;
    constexpr int kEditGates[] = {1, 2, 4};
    const int gates = kEditGates[rng.uniform_index(3)];
    for (int g = 0; g < gates; ++g) {
      if (!lines.empty()) lines += "\n";
      const int a = rng.uniform_int(0, qubits - 1);
      if (rng.uniform_real() < 0.7) {
        int b = rng.uniform_int(0, qubits - 2);
        if (b >= a) ++b;
        lines += std::string(rng.uniform_real() < 0.5 ? "C-X" : "C-Z") + " q" +
                 std::to_string(a) + ",q" + std::to_string(b);
      } else {
        lines += std::string(rng.uniform_real() < 0.5 ? "H" : "T") + " q" +
                 std::to_string(a);
      }
    }
    return lines;
  }

  std::size_t add_unique(const std::string& qasm, std::uint64_t seed,
                         bool session) {
    const auto [it, inserted] = lookup_.try_emplace(
        std::make_tuple(qasm, seed, session), uniques_.size());
    if (inserted) uniques_.push_back({qasm, seed, session});
    return it->second;
  }

  static constexpr int kEdits = 3;

  std::uint64_t seed_;
  std::uint64_t next_index_ = 0;
  std::uint64_t stateless_ = 0;
  std::vector<UniqueRequest> uniques_;
  std::map<std::tuple<std::string, std::uint64_t, bool>, std::size_t> lookup_;
  std::vector<std::size_t> fresh_;  // uniques of fresh stateless maps
};

/// One map request as the client saw it.
struct Exchange {
  Kind kind = Kind::Stateless;
  std::size_t unique = 0;
  double client_ms = 0.0;
  bool ok = false;
  std::string code;  // error code when !ok
  double latency_us = 0.0;
  double ideal_us = 0.0;
  double queue_ms = 0.0;
  double map_ms = 0.0;
  double placement_runs = 0.0;
  double trial_cpu_ms = 0.0;
  double setup_ms = 0.0;
  std::string fingerprint;
};

qspr::JsonValue expect_ok(const std::string& reply, const char* what) {
  qspr::JsonValue value = qspr::parse_json(reply);
  if (!value.bool_or("ok", false)) {
    throw std::runtime_error(std::string(what) + " failed: " + reply);
  }
  return value;
}

/// One round trip on the library's NDJSON client, without retries: a
/// transport failure or a timeout fails the run.
std::string call(qspr::ShardClient& client, const std::string& line) {
  std::string reply;
  if (!client.try_request(line, reply)) {
    throw std::runtime_error("no reply from qspr_serve to " +
                             line.substr(0, 80));
  }
  return reply;
}

qspr::ShardClientOptions client_options(int port) {
  qspr::ShardClientOptions options;
  options.port = port;
  options.max_attempts = 1;
  return options;
}

std::string ping_line() {
  qspr::JsonWriter json;
  json.begin_object().field("type", "ping").field("id", "ping").end_object();
  return json.str();
}

struct ClientShared {
  std::mutex mutex;
  ScriptSource* source = nullptr;  // guarded by mutex
  std::vector<Exchange> exchanges;  // guarded by mutex
  std::string error;               // guarded by mutex
};

void client_loop(int connection, int port, int m, Clock::time_point deadline,
                 ClientShared& shared, Tracer& tracer, int parent) {
  try {
    qspr::ShardClient client(client_options(port));
    int sequence = 0;
    for (;;) {
      Script script;
      {
        const std::lock_guard<std::mutex> lock(shared.mutex);
        if (Clock::now() >= deadline || !shared.error.empty()) return;
        script = shared.source->next();
      }
      const std::string prefix =
          "c" + std::to_string(connection) + "-" + std::to_string(sequence++);
      std::string session;
      if (script.session) {
        qspr::JsonWriter open;
        open.begin_object()
            .field("type", "session_open")
            .field("id", prefix + "-open")
            .field("fabric", "paper")
            .end_object();
        session = expect_ok(call(client, open.str()), "session_open")
                      .string_or("session", "");
      }
      std::vector<Exchange> done;
      for (std::size_t i = 0; i < script.maps.size(); ++i) {
        const ScriptedMap& map = script.maps[i];
        const std::string id = prefix + "-" + std::to_string(i);
        qspr::JsonWriter request;
        request.begin_object().field("type", "map").field("id", id);
        if (!session.empty()) request.field("session", session);
        request.field(map.kind == Kind::Edit ? "qasm_append" : "qasm", map.text);
        request.field("fabric", "paper")
            .field("placer", "mvfb")
            .field("m", m)
            .field("seed", static_cast<long long>(map.seed))
            .end_object();
        Exchange exchange;
        exchange.kind = map.kind;
        exchange.unique = map.unique;
        std::string reply;
        {
          Tracer::Scope span(tracer, "map", parent, id, connection + 1);
          const auto start = Clock::now();
          reply = call(client, request.str());
          exchange.client_ms = ms_between(start, Clock::now());
        }
        const qspr::JsonValue value = qspr::parse_json(reply);
        exchange.ok = value.bool_or("ok", false);
        exchange.code = value.string_or("code", "");
        exchange.latency_us = value.number_or("latency_us", 0.0);
        exchange.ideal_us = value.number_or("ideal_latency_us", 0.0);
        exchange.queue_ms = value.number_or("queue_ms", 0.0);
        exchange.map_ms = value.number_or("map_ms", 0.0);
        exchange.placement_runs = value.number_or("placement_runs", 0.0);
        exchange.trial_cpu_ms = value.number_or("trial_cpu_ms", 0.0);
        exchange.setup_ms = value.number_or("setup_ms", 0.0);
        exchange.fingerprint = value.string_or("result_fp", "");
        done.push_back(std::move(exchange));
      }
      if (!session.empty()) {
        qspr::JsonWriter close;
        close.begin_object()
            .field("type", "session_close")
            .field("id", prefix + "-close")
            .field("session", session)
            .end_object();
        expect_ok(call(client, close.str()), "session_close");
      }
      const std::lock_guard<std::mutex> lock(shared.mutex);
      shared.exchanges.insert(shared.exchanges.end(), done.begin(), done.end());
    }
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(shared.mutex);
    if (shared.error.empty()) shared.error = e.what();
  }
}

}  // namespace

PhaseResult run_serve(const RunSettings& settings, Tracer& tracer,
                      bool check) {
  const int m = settings.tiny ? 1 : 4;
  const int hardware = qspr::Executor::default_worker_count();
  const int mapper_threads = 2;
  const int connections = settings.tiny ? 2 : hardware;
  const std::vector<std::string> server_args = {
      "--host", "127.0.0.1", "--jobs", std::to_string(hardware),
      "--mapper-threads", std::to_string(mapper_threads), "--quiet"};
  const std::string port_file =
      (std::filesystem::path(settings.out_dir) /
       ("serve-" + std::to_string(::getpid()) + ".port"))
          .string();

  PhaseResult phase;
  Tracer::Scope root(tracer, "workload", -1, settings.workload);

  // Set-up: spawn to the first ping reply. The workload runs on the first
  // server; the other set-ups run after the timed loop, and setup_s is the
  // median of all of them (as in the paper workloads).
  const int setups = settings.tiny ? 3 : 101;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    Tracer::Scope span(tracer, "setup", root.id());
    const auto start = Clock::now();
    auto fresh = std::make_unique<ServeProcess>(settings.serve_binary,
                                                server_args, port_file);
    qspr::ShardClient client(client_options(fresh->port()));
    (void)call(client, ping_line());
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    return fresh;
  };
  std::unique_ptr<ServeProcess> server = set_up();

  ScriptSource source(settings.seed);
  ClientShared shared;
  shared.source = &source;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(settings.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back(client_loop, c, server->port(), m, deadline,
                           std::ref(shared), std::ref(tracer), root.id());
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  if (!shared.error.empty()) throw std::runtime_error(shared.error);

  qspr::JsonWriter stats_request;
  stats_request.begin_object().field("type", "stats").field("id", "stats").end_object();
  qspr::ShardClient stats_client(client_options(server->port()));
  const qspr::JsonValue stats_reply =
      expect_ok(call(stats_client, stats_request.str()), "stats");
  const qspr::JsonValue* stats_object = stats_reply.find("stats");
  const qspr::JsonValue& stats = stats_object != nullptr ? *stats_object : stats_reply;
  const double rss_mb = peak_rss_mb(server->pid());
  server->stop();
  server.reset();
  for (int i = 1; i < setups; ++i) set_up()->stop();

  const std::vector<Exchange>& exchanges = shared.exchanges;
  phase.attempted = static_cast<long long>(exchanges.size());
  std::vector<double> map_ms;
  std::vector<double> ratios;
  std::map<Kind, std::vector<double>> by_kind;
  std::vector<double> queue_ms;
  std::vector<double> server_map_ms;
  std::vector<double> wire_ms;
  std::vector<double> trial_cpu;
  std::vector<double> setup_ms;
  double trial_cpu_total = 0.0;
  double worked_map_ms = 0.0;
  double all_map_ms = 0.0;
  double runs_total = 0.0;
  long long overloaded = 0;
  long long stateless = 0;
  long long repeats = 0;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const Exchange& exchange = exchanges[i];
    if (exchange.kind == Kind::Stateless) ++stateless;
    if (exchange.kind == Kind::Repeat) ++repeats;
    if (!exchange.ok) {
      if (exchange.code == "overloaded") ++overloaded;
      phase.failed.insert(static_cast<long long>(i));
      phase.failures.push_back(std::string(kind_name(exchange.kind)) +
                               " request failed: " + exchange.code);
      continue;
    }
    map_ms.push_back(exchange.client_ms);
    ratios.push_back(exchange.latency_us / exchange.ideal_us);
    by_kind[exchange.kind].push_back(exchange.client_ms);
    queue_ms.push_back(exchange.queue_ms);
    server_map_ms.push_back(exchange.map_ms);
    wire_ms.push_back(exchange.client_ms - exchange.queue_ms - exchange.map_ms);
    trial_cpu.push_back(exchange.trial_cpu_ms);
    setup_ms.push_back(exchange.setup_ms);
    all_map_ms += exchange.map_ms;
    // Result-cache hits echo the cached result's work counters; only
    // replies that mapped count towards work rates.
    if (exchange.kind != Kind::Resubmit) {
      trial_cpu_total += exchange.trial_cpu_ms;
      worked_map_ms += exchange.map_ms;
      runs_total += exchange.placement_runs;
    }
  }

  qspr::JsonWriter detail;
  detail.begin_object();
  detail.field("m", m);
  detail.field("engine_workers", hardware);
  detail.field("mapper_threads", mapper_threads);
  detail.field("connections", connections);
  add_end_to_end(phase, map_ms, map_ms.size(), wall_s, ratios, setup_s, rss_mb, detail);
  detail.key("requests").begin_object();
  for (const Kind kind : {Kind::Stateless, Kind::Repeat, Kind::SessionFirst,
                          Kind::Edit, Kind::Resubmit}) {
    detail.field(kind_name(kind), by_kind[kind].size());
  }
  detail.end_object();
  detail.field("edit_ms_p50", median(by_kind[Kind::Edit]));
  detail.field("resubmit_ms_p50", median(by_kind[Kind::Resubmit]));
  // Measured shares of the mix: repeats among stateless maps, the rest
  // among all map requests.
  const auto share = [](std::size_t part, std::size_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  std::map<Kind, std::size_t> sent;
  for (const Exchange& exchange : exchanges) ++sent[exchange.kind];
  detail.field("repeat_share",
               share(repeats, static_cast<std::size_t>(stateless + repeats)));
  detail.field("session_share",
               share(sent[Kind::SessionFirst] + sent[Kind::Edit] +
                         sent[Kind::Resubmit],
                     exchanges.size()));
  detail.field("edit_share", share(sent[Kind::Edit], exchanges.size()));
  detail.field("resubmit_share", share(sent[Kind::Resubmit], exchanges.size()));
  detail.field("failed_frac", exchanges.empty()
                                  ? 0.0
                                  : static_cast<double>(phase.failed.size()) /
                                        exchanges.size());
  detail.field("result_hits", stats.number_or("result_hits", 0.0));
  detail.field("result_misses", stats.number_or("result_misses", 0.0));
  detail.end_object();
  phase.detail = detail.str();

  auto& layers = phase.layers;
  layers["service.queue_ms_p50"] = median(queue_ms);
  layers["service.map_ms_p50"] = median(server_map_ms);
  layers["service.wire_ms_p50"] = median(wire_ms);
  layers["service.overloaded"] = static_cast<double>(overloaded);
  layers["service.edit_ms_p50"] = median(by_kind[Kind::Edit]);
  layers["service.resubmit_ms_p50"] = median(by_kind[Kind::Resubmit]);
  layers["sim.event_sim.runs_per_cpu_s"] =
      trial_cpu_total > 0.0 ? runs_total / (trial_cpu_total / 1e3) : 0.0;
  layers["core.mvfb.trial_cpu_ms"] = median(trial_cpu);
  layers["core.engine.setup_ms"] = median(setup_ms);
  layers["core.engine.parallel_efficiency"] =
      worked_map_ms > 0.0 ? trial_cpu_total / (worked_map_ms * hardware) : 0.0;
  layers["core.engine.idle_frac"] =
      1.0 - all_map_ms / (wall_s * 1e3 * mapper_threads);
  const double hits = stats.number_or("result_hits", 0.0);
  const double misses = stats.number_or("result_misses", 0.0);
  layers["core.result_cache.hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers["core.result_cache.insertions"] = stats.number_or("result_insertions", 0.0);
  layers["core.result_cache.evictions"] = stats.number_or("result_evictions", 0.0);
  layers["core.result_cache.bytes"] = stats.number_or("result_bytes", 0.0);
  layers["core.artifact_cache.builds"] = stats.number_or("artifact_builds", 0.0);
  layers["core.artifact_cache.hits"] = stats.number_or("artifact_hits", 0.0);

  // The distinct requests the server answered, mapped again in process
  // (outside the timing) for the correctness gate and the replays.
  std::vector<std::size_t> seen;
  for (const Exchange& exchange : exchanges) seen.push_back(exchange.unique);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  const qspr::Fabric fabric = qspr::make_paper_fabric();
  std::map<std::size_t, std::size_t> distinct_of;
  {
    Tracer::Scope span(tracer, "reference_maps", root.id());
    qspr::MappingEngine engine(hardware);
    constexpr std::size_t kBatch = 16;
    for (std::size_t begin = 0; begin < seen.size(); begin += kBatch) {
      const std::size_t end = std::min(seen.size(), begin + kBatch);
      std::vector<MappedProgram> batch;
      for (std::size_t i = begin; i < end; ++i) {
        const UniqueRequest& unique = source.uniques()[seen[i]];
        MappedProgram mapped;
        mapped.request = "u" + std::to_string(seen[i]);
        mapped.qasm = unique.qasm;
        mapped.program = qspr::parse_qasm(unique.qasm, mapped.request);
        mapped.options.placer = qspr::PlacerKind::Mvfb;
        mapped.options.mvfb_seeds = m;
        mapped.options.monte_carlo_trials = m;
        mapped.options.rng_seed = unique.seed;
        // Session maps run the negotiation diagnostic on the server; it is
        // not part of result_fp, so the reference maps skip it.
        batch.push_back(std::move(mapped));
      }
      std::vector<qspr::MappingEngine::PendingMap> pending;
      for (const MappedProgram& mapped : batch) {
        qspr::MapJob job;
        job.program = &mapped.program;
        job.fabric = &fabric;
        job.options = mapped.options;
        job.name = mapped.request;
        pending.push_back(engine.begin(job));
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].result = engine.finish(std::move(pending[i]));
        distinct_of[seen[begin + i]] = phase.distinct.size();
        phase.distinct.push_back(std::move(batch[i]));
      }
    }
  }

  if (check) {
    Tracer::Scope gate(tracer, "check", root.id());
    std::vector<std::string> fingerprints;
    std::vector<bool> legal;
    for (std::size_t d = 0; d < phase.distinct.size(); ++d) {
      const MappedProgram& mapped = phase.distinct[d];
      fingerprints.push_back(qspr::map_result_fingerprint(mapped.result));
      const std::vector<std::string> violations = check_mapping(
          mapped, fabric, tracer, gate.id(), settings.corrupt_trace && d == 0);
      phase.failures.insert(phase.failures.end(), violations.begin(),
                            violations.end());
      legal.push_back(violations.empty());
    }
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      const Exchange& exchange = exchanges[i];
      if (!exchange.ok) continue;
      const std::size_t d = distinct_of.at(exchange.unique);
      bool good = legal[d];
      if (exchange.fingerprint != fingerprints[d]) {
        phase.failures.push_back(phase.distinct[d].request +
                                 ": served result_fp " + exchange.fingerprint +
                                 " != in-process " + fingerprints[d]);
        good = false;
      }
      if (exchange.latency_us < exchange.ideal_us) {
        phase.failures.push_back(phase.distinct[d].request +
                                 ": served latency below the ideal bound");
        good = false;
      }
      if (!good) phase.failed.insert(static_cast<long long>(i));
    }
  }
  return phase;
}

}  // namespace perfbench
