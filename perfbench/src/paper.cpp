// paper_serial / paper_parallel: the paper's six calibrated encoders mapped
// with QSPR/MVFB at m = 100, one request at a time through
// MappingEngine::map, in passes until the run's time is used up.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "fabric/quale_fabric.hpp"
#include "qasm/writer.hpp"
#include "qecc/codes.hpp"
#include "service/request_codec.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

struct Sample {
  std::size_t code = 0;
  double map_ms = 0.0;
  qspr::Duration latency = 0;
  qspr::Duration ideal = 0;
  std::string fingerprint;
  int placement_runs = 0;
  double trial_cpu_ms = 0.0;
  double setup_ms = 0.0;
};

/// Cross-workload half of the determinism check: the first paper workload
/// run for a (source digest, seed, m) in this checkout records each code's
/// result fingerprint; every later run of the same code, serial or
/// parallel, must match it. A build of other sources gets its own record,
/// so a change that legitimately alters a mapping is never checked against
/// the results of the code before it.
void check_determinism_record(const RunSettings& settings, int m,
                              const std::vector<MappedProgram>& first,
                              PhaseResult& phase) {
  if (settings.out_dir.empty()) return;
  const std::filesystem::path path =
      std::filesystem::path(settings.out_dir) /
      ("determinism-" + settings.source_digest + "-seed" +
       std::to_string(settings.seed) + "-m" + std::to_string(m) + ".txt");
  std::vector<std::string> current;
  for (const MappedProgram& mapped : first) {
    current.push_back(qspr::map_result_fingerprint(mapped.result));
  }
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path);
    for (std::size_t i = 0; i < current.size(); ++i) {
      out << first[i].request << " " << current[i] << "\n";
    }
    return;
  }
  std::string request;
  std::string fingerprint;
  for (std::size_t i = 0; i < current.size() && (in >> request >> fingerprint);
       ++i) {
    if (request != first[i].request || fingerprint != current[i]) {
      phase.failures.push_back(first[i].request +
                               ": result differs from the recorded run of the "
                               "other paper workload (" + path.string() + ")");
      phase.failed.insert(static_cast<long long>(i));
    }
  }
}

struct SetupSample {
  /// Spawn to the probe's "ready" line.
  double seconds = 0.0;
  /// The probe's own in-process build time, from its "ready" line.
  double build_ms = 0.0;
};

/// Spawns this program in set-up probe mode and times it from the spawn to
/// its "ready <build ms>" line. The probe's exit is waited for but not
/// timed.
SetupSample time_setup_probe(const std::string& self, int workers) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string path = self;
  std::string mode = "--setup-probe";
  std::string count = std::to_string(workers);
  char* argv[] = {path.data(), mode.data(), count.data(), nullptr};
  const auto start = Clock::now();
  pid_t pid = -1;
  const int error =
      ::posix_spawn(&pid, path.c_str(), &actions, nullptr, argv, environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (error != 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot spawn the set-up probe " + path);
  }
  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fds[0], &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') break;
    line += c;
  }
  SetupSample sample;
  sample.seconds = ms_between(start, Clock::now()) / 1e3;
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const std::string ready = "ready ";
  if (line.rfind(ready, 0) != 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the set-up probe failed");
  }
  sample.build_ms = std::stod(line.substr(ready.size()));
  return sample;
}

}  // namespace

int setup_probe_main(int workers) {
  if (workers < 1) return 2;
  const auto start = Clock::now();
  qspr::MappingEngine engine(workers);
  const qspr::Fabric fabric = qspr::make_paper_fabric();
  (void)engine.artifacts().get(fabric);
  std::printf("ready %.6f\n", ms_between(start, Clock::now()));
  std::fflush(stdout);
  return 0;
}

PhaseResult run_paper(const RunSettings& settings, int workers,
                      Tracer& tracer, bool check) {
  const int m = settings.tiny ? 2 : 100;
  const std::vector<qspr::PaperNumbers>& paper = qspr::paper_benchmarks();
  std::vector<qspr::Program> programs;
  for (const qspr::PaperNumbers& numbers : paper) {
    programs.push_back(qspr::make_encoder(numbers.code));
  }
  qspr::MapperOptions options;
  options.placer = qspr::PlacerKind::Mvfb;
  options.mvfb_seeds = m;
  options.monte_carlo_trials = m;
  options.rng_seed = settings.seed;
  options.jobs = workers;

  PhaseResult phase;
  Tracer::Scope root(tracer, "workload", -1, settings.workload);

  // Set-up is timed from process start to ready, as for qspr_serve: a
  // probe process (this program with --setup-probe) builds the engine with
  // its executor threads, the paper fabric and its artifact bundle, then
  // says "ready". A set-up in this process takes about half a millisecond,
  // and the run median of such set-ups spread by 0.29 (quartile distance /
  // median) over ten runs of paper_parallel; process starts spread no more
  // than the mapping timings. Probes run after every mapping request, kept
  // out of the workload's wall time, so the median samples the whole run.
  constexpr int kSetupsPerRequest = 4;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  const auto probe_setup = [&] {
    Tracer::Scope span(tracer, "setup", root.id());
    const SetupSample sample = time_setup_probe(settings.self_binary, workers);
    setup_s.push_back(sample.seconds);
    build_ms.push_back(sample.build_ms);
  };
  probe_setup();
  qspr::MappingEngine engine(workers);
  const qspr::Fabric fabric = qspr::make_paper_fabric();

  std::vector<Sample> samples;
  std::vector<MappedProgram> first;
  int passes = 0;
  double setup_wall_ms = 0.0;
  const auto start = Clock::now();
  const auto workload_ms = [&] {
    return ms_between(start, Clock::now()) - setup_wall_ms;
  };
  while (passes == 0 || workload_ms() < settings.seconds * 1e3) {
    for (std::size_t c = 0; c < programs.size(); ++c) {
      const std::string request = qspr::code_name(paper[c].code);
      Sample sample;
      sample.code = c;
      qspr::MapResult result;
      {
        Tracer::Scope span(tracer, "map", root.id(),
                           request + "#" + std::to_string(passes));
        const auto map_start = Clock::now();
        result = engine.map(programs[c], fabric, options);
        sample.map_ms = ms_between(map_start, Clock::now());
      }
      sample.latency = result.latency;
      sample.ideal = result.ideal_latency;
      sample.fingerprint = qspr::map_result_fingerprint(result);
      sample.placement_runs = result.placement_runs;
      sample.trial_cpu_ms = result.trial_cpu_ms;
      sample.setup_ms = result.setup_ms;
      samples.push_back(std::move(sample));
      if (passes == 0) {
        first.push_back({request, qspr::write_qasm(programs[c]), programs[c],
                         options, std::move(result)});
      }
      const auto setup_start = Clock::now();
      for (int i = 0; i < kSetupsPerRequest; ++i) probe_setup();
      setup_wall_ms += ms_between(setup_start, Clock::now());
    }
    ++passes;
  }
  const double wall_s = workload_ms() / 1e3;
  const double rss_mb = peak_rss_mb(0);
  phase.attempted = static_cast<long long>(samples.size());

  std::vector<double> map_ms;
  std::vector<double> ratios;
  std::vector<double> trial_cpu;
  std::vector<double> setup_ms;
  double trial_cpu_total = 0.0;
  double map_ms_total = 0.0;
  long long runs_total = 0;
  for (const Sample& sample : samples) {
    map_ms.push_back(sample.map_ms);
    ratios.push_back(static_cast<double>(sample.latency) /
                     static_cast<double>(sample.ideal));
    trial_cpu.push_back(sample.trial_cpu_ms);
    setup_ms.push_back(sample.setup_ms);
    trial_cpu_total += sample.trial_cpu_ms;
    map_ms_total += sample.map_ms;
    runs_total += sample.placement_runs;
  }

  qspr::JsonWriter detail;
  detail.begin_object();
  detail.field("m", m);
  detail.field("workers", workers);
  detail.field("passes", passes);
  // Every pass maps the same six programs, whose times differ sevenfold. Over
  // all requests the median sits in the gap between the third and fourth
  // code and jumps with one slow request, and the tail rank moves from one
  // code to another as the pass count changes. So both are taken over a
  // typical pass: each code at its median time over the passes.
  std::vector<double> code_p50(programs.size());
  std::vector<double> code_cpu_p50(programs.size());
  for (std::size_t c = 0; c < programs.size(); ++c) {
    std::vector<double> code_ms;
    std::vector<double> code_cpu;
    for (const Sample& sample : samples) {
      if (sample.code != c) continue;
      code_ms.push_back(sample.map_ms);
      code_cpu.push_back(sample.trial_cpu_ms);
    }
    code_p50[c] = median(code_ms);
    code_cpu_p50[c] = median(code_cpu);
  }
  add_end_to_end(phase, code_p50, samples.size(), wall_s, ratios, setup_s,
                 rss_mb, detail);
  const Tail all_tail = tail_of(map_ms);
  detail.key("all_requests").begin_object();
  detail.field("map_ms_p50", median(map_ms));
  detail.field("map_ms_tail", all_tail.value);
  detail.field("map_ms_tail_percentile", all_tail.percentile);
  detail.end_object();
  detail.key("programs").begin_array();
  for (std::size_t c = 0; c < programs.size(); ++c) {
    const MappedProgram& mapped = first[c];
    const double paper_us = static_cast<double>(paper[c].qspr_latency);
    detail.begin_object();
    detail.field("code", mapped.request);
    detail.field("map_ms_p50", code_p50[c]);
    detail.field("trial_cpu_ms_p50", code_cpu_p50[c]);
    detail.field("latency_us", static_cast<long long>(mapped.result.latency));
    detail.field("ideal_us", static_cast<long long>(mapped.result.ideal_latency));
    detail.field("placement_runs", mapped.result.placement_runs);
    detail.field("paper_qspr_us", static_cast<long long>(paper[c].qspr_latency));
    detail.field("vs_paper_pct",
                 100.0 * (static_cast<double>(mapped.result.latency) - paper_us) /
                     paper_us);
    detail.end_object();
  }
  detail.end_array();
  detail.end_object();
  phase.detail = detail.str();

  const qspr::FabricArtifactCache::Stats artifacts = engine.artifacts().stats();
  const qspr::ResultCache::Stats results = engine.results().stats();
  auto& layers = phase.layers;
  layers["sim.event_sim.runs_per_cpu_s"] =
      trial_cpu_total > 0.0
          ? static_cast<double>(runs_total) / (trial_cpu_total / 1e3)
          : 0.0;
  layers["core.mvfb.trial_cpu_ms"] = median(trial_cpu);
  layers["core.engine.setup_ms"] = median(setup_ms);
  layers["core.engine.build_ms"] = median(build_ms);
  layers["core.engine.parallel_efficiency"] =
      map_ms_total > 0.0 ? trial_cpu_total / (map_ms_total * workers) : 0.0;
  layers["core.engine.idle_frac"] = 1.0 - map_ms_total / (wall_s * 1e3);
  layers["core.artifact_cache.builds"] = static_cast<double>(artifacts.builds);
  layers["core.artifact_cache.hits"] = static_cast<double>(artifacts.hits);
  const long long lookups = results.hits + results.misses;
  layers["core.result_cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(results.hits) / lookups : 0.0;
  layers["core.result_cache.insertions"] = static_cast<double>(results.insertions);
  layers["core.result_cache.evictions"] = static_cast<double>(results.evictions);
  layers["core.result_cache.bytes"] = static_cast<double>(results.bytes);

  if (check) {
    Tracer::Scope gate(tracer, "check", root.id());
    // Determinism within the run: every pass reproduces pass 0 exactly.
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& sample = samples[i];
      const MappedProgram& reference = first[sample.code];
      if (sample.latency != reference.result.latency ||
          sample.fingerprint !=
              qspr::map_result_fingerprint(reference.result)) {
        phase.failures.push_back(reference.request + ": pass result differs "
                                 "from the first pass");
        phase.failed.insert(static_cast<long long>(i));
      }
    }
    // Identical results share one check, so each distinct trace is
    // validated once and a violation fails every request that produced it.
    for (std::size_t c = 0; c < first.size(); ++c) {
      const std::vector<std::string> violations = check_mapping(
          first[c], fabric, tracer, gate.id(), settings.corrupt_trace && c == 0);
      if (violations.empty()) continue;
      phase.failures.insert(phase.failures.end(), violations.begin(),
                            violations.end());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].code == c) phase.failed.insert(static_cast<long long>(i));
      }
    }
    check_determinism_record(settings, m, first, phase);
  }
  phase.distinct = std::move(first);
  return phase;
}

}  // namespace perfbench
