#include "service/shard_supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace qspr {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Frame cap of the control lane: health replies are a few hundred bytes.
constexpr std::size_t kControlFrameBytes = 1 << 16;

std::chrono::steady_clock::time_point after_ms(
    std::chrono::steady_clock::time_point from, double ms) {
  return from + std::chrono::microseconds(static_cast<long long>(ms * 1000.0));
}

/// Pulls the "id" out of one reply line, plus the optional "session" the
/// worker names (session_open acks and session-map results both carry it;
/// a close ack additionally carries open:false, reported via
/// `session_closed`). Returns false when the line is not a JSON object —
/// the caller drops it.
bool reply_id(const std::string& line, std::string& id, std::string& session,
              bool& session_closed) {
  session.clear();
  session_closed = false;
  try {
    const JsonValue root = parse_json(line);
    if (!root.is_object()) return false;
    const JsonValue* value = root.find("id");
    if (value != nullptr && value->kind() == JsonValue::Kind::String) {
      id = value->as_string();
    } else {
      id.clear();
    }
    const JsonValue* named = root.find("session");
    if (named != nullptr && named->kind() == JsonValue::Kind::String) {
      session = named->as_string();
      const JsonValue* open = root.find("open");
      session_closed = open != nullptr &&
                       open->kind() == JsonValue::Kind::Bool &&
                       !open->as_bool();
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Circuit breaker.

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options), cooldown_(options.cooldown) {
  require(options_.failure_threshold >= 1,
          "breaker needs a failure threshold of at least 1");
}

void CircuitBreaker::record_success() {
  state_ = BreakerState::Closed;
  consecutive_failures_ = 0;
  trips_ = 0;
}

void CircuitBreaker::record_failure(TimePoint now) {
  ++consecutive_failures_;
  if (state_ == BreakerState::HalfOpen ||
      consecutive_failures_ >= options_.failure_threshold) {
    open(now);
  }
}

void CircuitBreaker::force_open(TimePoint now) { open(now); }

void CircuitBreaker::open(TimePoint now) {
  state_ = BreakerState::Open;
  consecutive_failures_ = 0;
  reopen_at_ = after_ms(now, static_cast<double>(cooldown_.delay_ms(trips_)));
  ++trips_;
}

bool CircuitBreaker::allow_probe(TimePoint now) {
  switch (state_) {
    case BreakerState::Closed:
    case BreakerState::HalfOpen:
      return true;
    case BreakerState::Open:
      if (now >= reopen_at_) {
        state_ = BreakerState::HalfOpen;
        return true;
      }
      return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Routing.

std::uint64_t fabric_route_fingerprint(const std::string& spec) {
  // "" and "paper" both mean the built-in fabric; canonicalise so they
  // share a shard (and its warm artifact caches).
  const std::string& canonical = spec.empty() ? std::string("paper") : spec;
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

int shard_for_fabric(const std::string& spec, int shard_count) {
  require(shard_count >= 1, "routing needs at least one shard");
  return static_cast<int>(fabric_route_fingerprint(spec) %
                          static_cast<std::uint64_t>(shard_count));
}

// ---------------------------------------------------------------------------
// Internal structures.

/// What the supervisor owes a reply for: one accepted map frame, its
/// original bytes (for re-dispatch), and how many worker deaths it has
/// already survived.
struct ShardSupervisor::ParkedFrame {
  std::uint64_t client = 0;
  std::string request_id;
  std::string frame;
  int attempts = 0;
};

struct ShardSupervisor::Client {
  Client(std::uint64_t id_in, FrameStream stream_in)
      : id(id_in), stream(std::move(stream_in)) {}

  std::uint64_t id;
  FrameStream stream;

  struct Pending {
    int shard = -1;
    std::string frame;
    int attempts = 0;
  };
  std::unordered_map<std::string, Pending> pending;
  /// Shard index -> lane: one upstream connection from this client to that
  /// shard. Frames forward byte-verbatim in both directions, so the
  /// worker's replies need no id rewriting — and closing the lane is
  /// exactly a client disconnect from the worker's point of view (it
  /// cancels that connection's in-flight work), which is how client death
  /// propagates. Lane outboxes are unbounded.
  std::unordered_map<int, FrameStream> lanes;
};

struct ShardSupervisor::Shard {
  int index = 0;
  ShardPhase phase = ShardPhase::Down;
  int pid = -1;
  int port = 0;
  std::string port_file;
  bool spawned_ever = false;
  CircuitBreaker breaker;
  std::chrono::steady_clock::time_point phase_deadline{};

  // Supervisor-owned control lane: health probes only. Kept separate from
  // client lanes so a probe never queues behind client traffic.
  FrameStream control;
  bool probe_outstanding = false;
  std::chrono::steady_clock::time_point probe_sent_at{};
  std::chrono::steady_clock::time_point next_probe_at{};

  explicit Shard(int index_in, const CircuitBreakerOptions& breaker_options)
      : index(index_in), breaker(breaker_options) {}

  void reset_control() {
    control = FrameStream();
    probe_outstanding = false;
  }
};

// ---------------------------------------------------------------------------
// Lifecycle.

ShardSupervisor::ShardSupervisor(ShardSupervisorOptions options)
    : options_(std::move(options)) {
  require(options_.shard_count >= 1, "qspr_shard needs at least one shard");
  require(!options_.worker_binary.empty(), "qspr_shard needs a worker binary");
  require(options_.max_redispatch >= 0, "max_redispatch must be >= 0");
  require(options_.health_interval_ms >= 1 && options_.health_timeout_ms >= 1,
          "health interval/timeout must be >= 1 ms");
  codec_limits_.max_frame_bytes = options_.max_frame_bytes;
}

ShardSupervisor::~ShardSupervisor() {
  // serve() normally reaps every child; cover early-throw lifetimes so a
  // failed test never leaks worker processes.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->pid > 0) {
      ::kill(shard->pid, SIGKILL);
      int status = 0;
      (void)::waitpid(shard->pid, &status, 0);
    }
    if (!shard->port_file.empty()) (void)::unlink(shard->port_file.c_str());
  }
}

void ShardSupervisor::start() {
  require(!started_, "start() called twice");
  started_at_ = std::chrono::steady_clock::now();
  listen_ = ListenSocket(options_.host, options_.port);

  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = options_.breaker_threshold;
  breaker_options.cooldown = options_.restart_backoff;

  shards_.reserve(static_cast<std::size_t>(options_.shard_count));
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    worker_pids_.assign(static_cast<std::size_t>(options_.shard_count), -1);
  }
  for (int i = 0; i < options_.shard_count; ++i) {
    auto shard = std::make_unique<Shard>(i, breaker_options);
    // Seed each shard's restart schedule differently so a mass failure
    // does not restart every worker in lockstep.
    shard->breaker = CircuitBreaker([&] {
      CircuitBreakerOptions per_shard = breaker_options;
      per_shard.cooldown.seed =
          breaker_options.cooldown.seed + static_cast<std::uint64_t>(i);
      return per_shard;
    }());
    shard->port_file = options_.port_file_dir + "/qspr_shard_" +
                       std::to_string(::getpid()) + "_" + std::to_string(i) +
                       ".port";
    shards_.push_back(std::move(shard));
  }
  started_ = true;
  for (int i = 0; i < options_.shard_count; ++i) spawn_shard(i);
}

int ShardSupervisor::port() const { return listen_.port(); }

void ShardSupervisor::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wake_.notify();
}

SupervisorMetrics ShardSupervisor::metrics() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return metrics_;
}

std::vector<int> ShardSupervisor::worker_pids() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return worker_pids_;
}

void ShardSupervisor::count(long long SupervisorMetrics::* field,
                            long long delta) {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  metrics_.*field += delta;
}

void ShardSupervisor::set_worker_pid(int index, int pid) {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  worker_pids_[static_cast<std::size_t>(index)] = pid;
}

// ---------------------------------------------------------------------------
// Worker lifecycle.

void ShardSupervisor::spawn_shard(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  if (shard.pid > 0) return;  // previous process not reaped yet
  (void)::unlink(shard.port_file.c_str());

  std::vector<std::string> args;
  args.push_back(options_.worker_binary);
  args.push_back("--port");
  args.push_back("0");
  args.push_back("--port-file");
  args.push_back(shard.port_file);
  args.push_back("--shard-id");
  args.push_back(std::to_string(index));
  args.push_back("--quiet");
  for (const std::string& extra : options_.worker_args) args.push_back(extra);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    shard_failed(index, "fork failed");
    return;
  }
  if (pid == 0) {
    // Child: drop every inherited descriptor beyond stdio (the listener,
    // wake pipe, sibling lanes...), then become the worker. Only
    // async-signal-safe calls between fork and execv.
    for (int fd = 3; fd < 4096; ++fd) ::close(fd);
    ::execv(argv[0], argv.data());
    _exit(127);
  }

  shard.pid = static_cast<int>(pid);
  shard.phase = ShardPhase::Spawning;
  shard.phase_deadline = after_ms(std::chrono::steady_clock::now(),
                                  static_cast<double>(options_.spawn_deadline_ms));
  shard.reset_control();
  set_worker_pid(index, shard.pid);
  count(&SupervisorMetrics::spawns);
  if (shard.spawned_ever) count(&SupervisorMetrics::restarts);
  shard.spawned_ever = true;
  if (!options_.quiet) {
    std::cerr << "qspr_shard: shard " << index << " spawned pid " << shard.pid
              << "\n";
  }
}

/// A bring-up, health or process failure: put the shard Down, ensure the
/// process is on its way out, and let the breaker schedule the next attempt.
void ShardSupervisor::shard_failed(int index, const char* why) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  if (!options_.quiet) {
    std::cerr << "qspr_shard: shard " << index << " failed: " << why << "\n";
  }
  if (shard.pid > 0) ::kill(shard.pid, SIGKILL);
  const bool was_up = shard.phase == ShardPhase::Up;
  shard.phase = ShardPhase::Down;
  shard.reset_control();
  on_shard_down(index);
  // Whichever detector notices a death first — the control lane, the
  // bring-up deadline or the waitpid sweep — applies the one breaker
  // action; a later one sees phase Down and only reaps.
  if (was_up) {
    count(&SupervisorMetrics::crashes);
    shard.breaker.force_open(std::chrono::steady_clock::now());
  } else {
    shard.breaker.record_failure(std::chrono::steady_clock::now());
  }
}

void ShardSupervisor::reap_children() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.pid <= 0) continue;
    int status = 0;
    const pid_t got = ::waitpid(shard.pid, &status, WNOHANG);
    if (got != shard.pid) continue;
    count(&SupervisorMetrics::reaps);
    set_worker_pid(shard.index, -1);
    shard.pid = -1;
    if (draining_ || shard.phase == ShardPhase::Down) {
      // Drain exits are expected; Down means shard_failed already
      // classified this death and charged the breaker.
      shard.phase = ShardPhase::Down;
      shard.reset_control();
      continue;
    }
    // Unexpected death: a serving worker's crash (its lanes EOF; buffered
    // replies still arrive, then the unanswered remainder re-dispatches
    // through fail_lane) or a bring-up failure (exec failure exits 127,
    // crash on boot...).
    shard_failed(shard.index, "process exited");
  }
}

void ShardSupervisor::pump_shard_bringup(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  const auto now = std::chrono::steady_clock::now();
  if (shard.phase == ShardPhase::Spawning ||
      shard.phase == ShardPhase::Connecting ||
      shard.phase == ShardPhase::Probing) {
    if (now >= shard.phase_deadline) {
      shard_failed(index, "bring-up deadline");
      return;
    }
  }

  if (shard.phase == ShardPhase::Spawning) {
    std::ifstream in(shard.port_file);
    int port = 0;
    if (!(in >> port) || port <= 0) return;  // not published yet
    shard.port = port;
    shard.phase = ShardPhase::Connecting;
  }

  if (shard.phase == ShardPhase::Connecting && !shard.control.open()) {
    try {
      shard.control =
          FrameStream::connect(options_.host, shard.port, kControlFrameBytes);
    } catch (const std::exception&) {
      shard_failed(index, "control connect setup");
      return;
    }
    // A refused connect leaves the stream closed: retried until the
    // deadline.
    if (shard.control.open() && !shard.control.connecting()) {
      begin_probing(index);
    }
  }
}

void ShardSupervisor::begin_probing(int index) {
  shards_[static_cast<std::size_t>(index)]->phase = ShardPhase::Probing;
  send_health_probe(index);
}

void ShardSupervisor::send_health_probe(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  shard.probe_outstanding = true;
  shard.probe_sent_at = std::chrono::steady_clock::now();
  if (!shard.control.send(R"({"type":"health","id":"hb"})")) {
    shard_failed(index, "control lane write");
  }
}

void ShardSupervisor::send_health_probes() {
  const auto now = std::chrono::steady_clock::now();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase != ShardPhase::Up) continue;
    if (shard->probe_outstanding || now < shard->next_probe_at) continue;
    send_health_probe(shard->index);
  }
}

void ShardSupervisor::check_health_timeouts() {
  const auto now = std::chrono::steady_clock::now();
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.phase != ShardPhase::Up || !shard.probe_outstanding) continue;
    if (ms_between(shard.probe_sent_at, now) <
        static_cast<double>(options_.health_timeout_ms)) {
      continue;
    }
    // Wedged: the process is alive (waitpid saw nothing) but the poll-loop
    // health probe — which bypasses the admission queue — went unanswered.
    // SIGKILL it and run the crash path.
    count(&SupervisorMetrics::wedges);
    count(&SupervisorMetrics::health_failures);
    if (!options_.quiet) {
      std::cerr << "qspr_shard: shard " << shard.index
                << " wedged (health timeout); killing\n";
    }
    if (shard.pid > 0) ::kill(shard.pid, SIGKILL);
    shard.phase = ShardPhase::Down;
    shard.reset_control();
    shard.breaker.force_open(now);
  }
}

void ShardSupervisor::read_control(int index) {
  Shard& shard = *shards_[static_cast<std::size_t>(index)];
  std::vector<std::string> frames;
  while (shard.control.open()) {
    frames.clear();
    const FrameStream::Read got = shard.control.read(frames);
    if (got == FrameStream::Read::WouldBlock) break;
    if (got == FrameStream::Read::Eof || got == FrameStream::Read::Error) {
      if (shard.phase == ShardPhase::Up ||
          shard.phase == ShardPhase::Probing) {
        shard_failed(index, "control lane closed");
      }
      return;
    }
    if (got == FrameStream::Read::Oversized) {
      shard_failed(index, "oversized control reply");
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (const std::string& frame : frames) {
      bool healthy = false;
      try {
        const JsonValue root = parse_json(frame);
        const JsonValue* ok = root.find("ok");
        const JsonValue* health = root.find("health");
        healthy = ok != nullptr && ok->kind() == JsonValue::Kind::Bool &&
                  ok->as_bool() && health != nullptr;
      } catch (const std::exception&) {
        healthy = false;
      }
      shard.probe_outstanding = false;
      shard.next_probe_at =
          after_ms(now, static_cast<double>(options_.health_interval_ms));
      if (healthy) {
        count(&SupervisorMetrics::health_ok);
        shard.breaker.record_success();
        if (shard.phase == ShardPhase::Probing) {
          shard.phase = ShardPhase::Up;
          if (!options_.quiet) {
            std::cerr << "qspr_shard: shard " << index << " up on port "
                      << shard.port << "\n";
          }
          flush_parked(index);
        }
      } else {
        count(&SupervisorMetrics::health_failures);
        shard.breaker.record_failure(now);
        if (shard.breaker.state() == BreakerState::Open) {
          shard_failed(index, "health probe rejected");
          return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Client side.

void ShardSupervisor::accept_clients() {
  while (true) {
    FrameStream stream(listen_.accept_client(), options_.max_frame_bytes,
                       options_.max_outbox_bytes);
    if (!stream.open()) return;
    if (static_cast<int>(clients_.size()) >= options_.max_connections) {
      stream.refuse_connection(100);
      continue;
    }
    const std::uint64_t id = next_client_id_++;
    clients_.emplace(id, std::make_unique<Client>(id, std::move(stream)));
  }
}

void ShardSupervisor::read_client(Client& client) {
  std::vector<std::string> frames;
  while (!client.stream.closing() && !client.stream.broken()) {
    frames.clear();
    const FrameStream::Read got = client.stream.read(frames);
    if (got == FrameStream::Read::WouldBlock ||
        got == FrameStream::Read::Eof || got == FrameStream::Read::Error) {
      return;
    }
    if (got == FrameStream::Read::Oversized) client.stream.refuse_oversized();
    for (std::string& frame : frames) {
      if (frame.empty()) continue;
      handle_client_frame(client, std::move(frame));
      if (client.stream.closing() || client.stream.broken()) break;
    }
  }
}

void ShardSupervisor::handle_client_frame(Client& client, std::string frame) {
  ServeRequest request;
  try {
    request = parse_serve_request(frame, codec_limits_, MapperOptions{});
  } catch (const std::exception& e) {
    client.stream.send(serve_error_json("", "bad_request", e.what()));
    return;
  }
  switch (request.kind) {
    case RequestKind::Ping:
      client.stream.send(serve_pong_json(request.id));
      return;
    case RequestKind::Stats:
      client.stream.send(stats_json(request.id));
      return;
    case RequestKind::Health:
      client.stream.send(health_json(request.id));
      return;
    case RequestKind::Cancel: {
      // Forward to the worker that holds the target; its ack flows back on
      // the same lane byte-verbatim. An unknown target is acked locally.
      const auto it = client.pending.find(request.cancel_target);
      if (it == client.pending.end()) {
        client.stream.send(serve_cancel_ack_json(
            request.id, request.cancel_target, /*found=*/false));
        return;
      }
      const auto lane_it = client.lanes.find(it->second.shard);
      if (lane_it == client.lanes.end() || !lane_it->second.open()) {
        // The worker died; the map request itself is already on the
        // re-dispatch path, so the cancel finds nothing to stop.
        client.stream.send(serve_cancel_ack_json(
            request.id, request.cancel_target, /*found=*/false));
        return;
      }
      lane_it->second.send(frame);
      return;
    }
    case RequestKind::SessionOpen:
    case RequestKind::SessionClose:
    case RequestKind::Map:
      // All three take the accepted/pending path and are owed exactly one
      // reply; route_map picks the shard (fabric hash vs session affinity).
      route_map(client, request, std::move(frame));
      return;
  }
}

void ShardSupervisor::route_map(Client& client, const ServeRequest& request,
                                std::string frame) {
  if (client.pending.count(request.id) != 0) {
    client.stream.send(serve_error_json(request.id, "bad_request",
                                        "duplicate in-flight request id"));
    return;
  }
  if (draining_) {
    client.stream.send(serve_error_json(request.id, "draining",
                                        "supervisor is draining; retry "
                                        "against a healthy instance"));
    return;
  }
  int target;
  if (!request.session.empty()) {
    // Session frames follow the session, not the fabric: its circuit and
    // results live in exactly one worker. No affinity entry means
    // the session never opened here or died with its shard — tell the
    // client to reopen rather than guessing a shard.
    const auto it = session_shards_.find(request.session);
    if (it == session_shards_.end()) {
      client.stream.send(serve_error_json(
          request.id, "unknown_session",
          "session not open on this fleet (its shard may have restarted; "
          "reopen): " +
              request.session));
      return;
    }
    target = it->second;
  } else {
    target = shard_for_fabric(request.fabric, options_.shard_count);
  }
  if (shards_[static_cast<std::size_t>(target)]->phase != ShardPhase::Up) {
    // Explicit shedding, no silent rerouting: affinity-preserving clients
    // retry after the hint and land back on their warm shard.
    shed(client, request.id, target);
    return;
  }
  count(&SupervisorMetrics::accepted);
  dispatch(client, request.id, std::move(frame), target, /*attempts=*/0);
}

void ShardSupervisor::on_shard_down(int index) {
  // Sessions live in the worker process; its death loses them. Dropping
  // the affinity entries now is what turns the next frame for such a
  // session into an explicit unknown_session instead of silently aliasing
  // a fresh session minted by the replacement worker (which restarts its
  // session counter).
  std::erase_if(session_shards_,
                [&](const auto& entry) { return entry.second == index; });
}

void ShardSupervisor::shed(Client& client, const std::string& request_id,
                           int shard_index) {
  count(&SupervisorMetrics::shed_shard_down);
  client.stream.send(serve_error_json(request_id, "shard_down",
                                      "shard " + std::to_string(shard_index) +
                                          " is down; retry after the hint",
                                      shard_retry_hint_ms(shard_index)));
}

void ShardSupervisor::dispatch(Client& client, const std::string& request_id,
                               std::string frame, int shard_index,
                               int attempts) {
  FrameStream& lane = lane_for(client, shard_index);
  lane.send(frame);  // a write failure leaves the lane to the fail_lane sweep
  Client::Pending pending;
  pending.shard = shard_index;
  pending.frame = std::move(frame);
  pending.attempts = attempts;
  client.pending[request_id] = std::move(pending);
}

FrameStream& ShardSupervisor::lane_for(Client& client, int shard_index) {
  FrameStream& lane = client.lanes[shard_index];
  if (lane.open()) return lane;
  try {
    lane = FrameStream::connect(
        options_.host, shards_[static_cast<std::size_t>(shard_index)]->port,
        options_.max_frame_bytes);
  } catch (const std::exception&) {
    lane = FrameStream();
  }
  // Refused: the shard just died; the fail_lane sweep handles it.
  if (!lane.open()) lane.mark_broken();
  return lane;
}

void ShardSupervisor::read_lane(Client& client, int shard_index,
                                FrameStream& lane) {
  std::vector<std::string> frames;
  while (true) {
    frames.clear();
    const FrameStream::Read got = lane.read(frames);
    for (const std::string& frame : frames) {
      std::string id;
      std::string session;
      bool session_closed = false;
      if (!reply_id(frame, id, session, session_closed)) {
        continue;  // not JSON: drop, never forward
      }
      const auto pending_it = client.pending.find(id);
      if (pending_it != client.pending.end() &&
          pending_it->second.shard == shard_index) {
        // The one reply this accepted request gets: account and erase
        // BEFORE forwarding, so a crash later can only re-dispatch
        // requests that were truly never answered.
        client.pending.erase(pending_it);
        count(&SupervisorMetrics::answered);
      }
      // Affinity follows what the worker reports: an open ack or a
      // session-map result pins the session to this shard (idempotent on
      // repeats), a close ack (open:false) releases it.
      if (!session.empty()) {
        if (session_closed) {
          session_shards_.erase(session);
        } else {
          session_shards_[session] = shard_index;
        }
      }
      client.stream.send(frame);
    }
    if (got == FrameStream::Read::WouldBlock) return;
    if (got != FrameStream::Read::Frames) {
      // EOF after a worker death: everything the worker managed to write
      // was already forwarded above; a partial trailing frame is dropped
      // (never half-forwarded) and its request re-dispatches with the rest.
      fail_lane(client, shard_index);
      return;
    }
  }
}

void ShardSupervisor::fail_lane(Client& client, int shard_index) {
  const auto lane_it = client.lanes.find(shard_index);
  if (lane_it == client.lanes.end()) return;
  client.lanes.erase(lane_it);
  // Collect this lane's unanswered requests, then re-dispatch each — the
  // mapping is pure, so a duplicate execution elsewhere returns the
  // bit-identical result the client was promised.
  std::vector<std::pair<std::string, Client::Pending>> orphans;
  for (auto it = client.pending.begin(); it != client.pending.end();) {
    if (it->second.shard == shard_index) {
      orphans.emplace_back(it->first, std::move(it->second));
      it = client.pending.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [request_id, pending] : orphans) {
    redispatch_or_park(client, request_id, std::move(pending.frame),
                       pending.attempts);
  }
}

void ShardSupervisor::redispatch_or_park(Client& client,
                                         const std::string& request_id,
                                         std::string frame, int attempts) {
  if (draining_) {
    count(&SupervisorMetrics::answered);
    client.stream.send(serve_error_json(
        request_id, "cancelled", "supervisor drained before completion"));
    return;
  }
  if (attempts + 1 > options_.max_redispatch) {
    count(&SupervisorMetrics::answered);
    count(&SupervisorMetrics::shed_shard_down);
    client.stream.send(
        serve_error_json(request_id, "shard_down",
                         "request outlived " + std::to_string(attempts + 1) +
                             " worker deaths; giving up",
                         shard_retry_hint_ms(-1)));
    return;
  }
  const int target = pick_up_shard();
  if (target < 0) {
    // No shard alive right now: park until a restart comes Up. The client
    // just waits a little longer — its request is not lost.
    count(&SupervisorMetrics::parked);
    parked_.push_back({client.id, request_id, std::move(frame), attempts + 1});
    return;
  }
  count(&SupervisorMetrics::redispatches);
  dispatch(client, request_id, std::move(frame), target, attempts + 1);
}

void ShardSupervisor::flush_parked(int up_shard) {
  std::deque<ParkedFrame> waiting;
  waiting.swap(parked_);
  for (ParkedFrame& parked : waiting) {
    const auto it = clients_.find(parked.client);
    if (it == clients_.end()) {
      count(&SupervisorMetrics::answered);  // owed reply died with the client
      continue;
    }
    count(&SupervisorMetrics::redispatches);
    dispatch(*it->second, parked.request_id, std::move(parked.frame), up_shard,
             parked.attempts);
  }
}

void ShardSupervisor::destroy_client(std::uint64_t id) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) return;
  // Closing the lanes is the cancellation: each worker sees its connection
  // from this client drop and cancels that connection's in-flight work.
  const std::size_t parked = std::erase_if(
      parked_, [&](const ParkedFrame& frame) { return frame.client == id; });
  const std::size_t owed = it->second->pending.size() + parked;
  if (owed > 0) {
    count(&SupervisorMetrics::answered, static_cast<long long>(owed));
  }
  clients_.erase(it);
}

// ---------------------------------------------------------------------------
// Drain.

void ShardSupervisor::begin_drain() {
  draining_ = true;
  listen_.close();
  drain_deadline_ = after_ms(std::chrono::steady_clock::now(),
                             options_.drain_deadline_ms);
  // Cascade: workers drain themselves (answer in-flight, flush, exit 0);
  // their replies flow back over the lanes before the EOF.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->pid > 0) ::kill(shard->pid, SIGTERM);
  }
  // Parked frames are not running anywhere; answer them now.
  std::deque<ParkedFrame> waiting;
  waiting.swap(parked_);
  for (const ParkedFrame& parked : waiting) {
    const auto it = clients_.find(parked.client);
    count(&SupervisorMetrics::answered);
    if (it == clients_.end()) continue;
    it->second->stream.send(
        serve_error_json(parked.request_id, "draining",
                         "supervisor is draining; retry elsewhere"));
  }
  if (!options_.quiet) std::cerr << "qspr_shard: draining\n";
}

void ShardSupervisor::finish_drain() {
  // Past the deadline: stop waiting for worker drains. SIGKILL guarantees
  // prompt EOFs and waitpid results; unanswered requests get `cancelled`.
  drain_killed_ = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->pid > 0) {
      ::kill(shard->pid, SIGKILL);
      int status = 0;
      (void)::waitpid(shard->pid, &status, 0);
      count(&SupervisorMetrics::reaps);
      set_worker_pid(shard->index, -1);
      shard->pid = -1;
    }
    shard->phase = ShardPhase::Down;
    shard->reset_control();
  }
  for (auto& [id, client] : clients_) {
    client->lanes.clear();
    for (const auto& [request_id, pending] : client->pending) {
      count(&SupervisorMetrics::answered);
      client->stream.send(serve_error_json(
          request_id, "cancelled", "drain deadline cancelled the request"));
    }
    client->pending.clear();
  }
}

// ---------------------------------------------------------------------------
// The supervision loop.

int ShardSupervisor::poll_timeout_ms() const {
  const auto now = std::chrono::steady_clock::now();
  double timeout = -1.0;
  const auto consider = [&](std::chrono::steady_clock::time_point at) {
    const double ms = std::max(0.0, ms_between(now, at));
    if (timeout < 0.0 || ms < timeout) timeout = ms;
  };
  // Port-file polling, connect retries and waitpid have no fd to wake on.
  const auto tick = [&] { consider(after_ms(now, 20.0)); };
  for (const std::unique_ptr<Shard>& shard : shards_) {
    switch (shard->phase) {
      case ShardPhase::Spawning:
      case ShardPhase::Connecting:
        tick();
        break;
      case ShardPhase::Probing:
        consider(shard->phase_deadline);
        break;
      case ShardPhase::Up:
        consider(shard->probe_outstanding
                     ? after_ms(shard->probe_sent_at,
                                static_cast<double>(options_.health_timeout_ms))
                     : shard->next_probe_at);
        break;
      case ShardPhase::Down:
        if (!draining_ && shard->pid <= 0) {
          if (shard->breaker.state() == BreakerState::Open) {
            consider(shard->breaker.reopen_at());
          } else {
            tick();
          }
        } else if (shard->pid > 0) {
          tick();  // awaiting the waitpid of a killed process
        }
        break;
    }
  }
  if (draining_ && !drain_killed_) consider(drain_deadline_);
  if (timeout < 0.0) return -1;
  return static_cast<int>(timeout) + 1;
}

int ShardSupervisor::pick_up_shard() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase == ShardPhase::Up) return shard->index;
  }
  return -1;
}

int ShardSupervisor::shard_retry_hint_ms(int index) const {
  double hint = 100.0;
  if (index >= 0) {
    const Shard& shard = *shards_[static_cast<std::size_t>(index)];
    if (shard.breaker.state() == BreakerState::Open) {
      hint = std::max(
          hint, ms_between(std::chrono::steady_clock::now(),
                           shard.breaker.reopen_at()) +
                    100.0);
    }
  }
  return static_cast<int>(std::clamp(hint, 50.0, 5000.0));
}

int ShardSupervisor::serve() {
  require(started_, "serve() needs start()");

  struct EntryRef {
    enum class Kind : std::uint8_t { Wake, Listen, Control, ClientFd, LaneFd };
    Kind kind = Kind::Wake;
    std::uint64_t client = 0;
    int shard = -1;
  };
  std::vector<PollEntry> entries;
  std::vector<EntryRef> refs;
  std::vector<std::uint64_t> scratch_ids;

  while (true) {
    if (!draining_ && drain_requested_.load(std::memory_order_relaxed)) {
      begin_drain();
    }
    if (draining_ && !drain_killed_ &&
        std::chrono::steady_clock::now() >= drain_deadline_) {
      finish_drain();
    }

    reap_children();

    if (!draining_) {
      const auto now = std::chrono::steady_clock::now();
      for (const std::unique_ptr<Shard>& shard : shards_) {
        if (shard->phase == ShardPhase::Down && shard->pid <= 0 &&
            shard->breaker.allow_probe(now)) {
          spawn_shard(shard->index);
        }
      }
      for (const std::unique_ptr<Shard>& shard : shards_) {
        pump_shard_bringup(shard->index);
      }
      send_health_probes();
      check_health_timeouts();
    }

    // Reap clients by the worker's rule (FrameStream::reapable); a parked
    // frame is a reply still owed.
    scratch_ids.clear();
    for (const auto& [id, client] : clients_) {
      const bool has_parked =
          std::any_of(parked_.begin(), parked_.end(),
                      [&](const ParkedFrame& parked) {
                        return parked.client == id;
                      });
      if (client->stream.reapable(!client->pending.empty() || has_parked)) {
        scratch_ids.push_back(id);
      }
    }
    for (const std::uint64_t id : scratch_ids) destroy_client(id);

    if (draining_) {
      bool workers_gone = true;
      for (const std::unique_ptr<Shard>& shard : shards_) {
        if (shard->pid > 0) workers_gone = false;
      }
      bool replies_owed = !parked_.empty();
      bool unflushed = false;
      for (const auto& [id, client] : clients_) {
        if (client->stream.broken()) continue;
        if (!client->pending.empty()) replies_owed = true;
        if (!client->stream.outbox_empty()) unflushed = true;
      }
      if (workers_gone && !replies_owed && (!unflushed || drain_killed_)) {
        break;
      }
    }

    // Build the poll set.
    entries.clear();
    refs.clear();
    entries.push_back({wake_.read_fd(), /*want_read=*/true});
    refs.push_back({EntryRef::Kind::Wake, 0, -1});
    if (listen_.valid()) {
      entries.push_back({listen_.fd(), /*want_read=*/true});
      refs.push_back({EntryRef::Kind::Listen, 0, -1});
    }
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (!shard->control.open()) continue;
      entries.push_back(shard->control.poll_entry());
      refs.push_back({EntryRef::Kind::Control, 0, shard->index});
    }
    for (const auto& [id, client] : clients_) {
      entries.push_back(client->stream.poll_entry());
      refs.push_back({EntryRef::Kind::ClientFd, id, -1});
      for (const auto& [shard_index, lane] : client->lanes) {
        if (!lane.open()) continue;
        entries.push_back(lane.poll_entry());
        refs.push_back({EntryRef::Kind::LaneFd, id, shard_index});
      }
    }

    poll_fds(entries, poll_timeout_ms());

    for (std::size_t i = 0; i < entries.size(); ++i) {
      const PollEntry& entry = entries[i];
      const EntryRef& ref = refs[i];
      switch (ref.kind) {
        case EntryRef::Kind::Wake:
          if (entry.readable) wake_.drain();
          break;
        case EntryRef::Kind::Listen:
          if (entry.readable && listen_.valid()) accept_clients();
          break;
        case EntryRef::Kind::Control: {
          Shard& shard = *shards_[static_cast<std::size_t>(ref.shard)];
          if (!shard.control.open() || shard.control.fd() != entry.fd) {
            break;  // phase changed earlier this pass
          }
          if (shard.control.connecting()) {
            if (!entry.writable && !entry.broken) break;
            if (shard.control.finish_connect()) {
              begin_probing(ref.shard);
            } else {
              shard.control = FrameStream();  // retried by pump_shard_bringup
            }
            break;
          }
          if (entry.readable || entry.broken) read_control(ref.shard);
          if (shard.control.open() && entry.writable &&
              !shard.control.flush()) {
            shard_failed(ref.shard, "control lane write");
          }
          break;
        }
        case EntryRef::Kind::ClientFd: {
          const auto it = clients_.find(ref.client);
          if (it == clients_.end()) break;
          FrameStream& stream = it->second->stream;
          if (stream.fd() != entry.fd) break;
          if (entry.broken) {
            stream.mark_broken();
            break;
          }
          if (entry.readable) read_client(*it->second);
          if (entry.writable) stream.flush();
          break;
        }
        case EntryRef::Kind::LaneFd: {
          const auto it = clients_.find(ref.client);
          if (it == clients_.end()) break;
          Client& client = *it->second;
          const auto lane_it = client.lanes.find(ref.shard);
          if (lane_it == client.lanes.end()) break;
          FrameStream& lane = lane_it->second;
          if (!lane.open() || lane.fd() != entry.fd) break;
          if (lane.connecting()) {
            if ((entry.writable || entry.broken) && !lane.finish_connect()) {
              fail_lane(client, ref.shard);
            }
            break;
          }
          // Read before acting on broken: a dead worker's final replies
          // sit in the kernel buffer and must forward before the EOF
          // triggers re-dispatch of the remainder.
          if (entry.readable || entry.broken) {
            read_lane(client, ref.shard, lane);
          }
          const auto again = client.lanes.find(ref.shard);
          if (again != client.lanes.end() && entry.writable) {
            again->second.flush();  // a failure is left to the sweep below
          }
          break;
        }
      }
    }

    // Lanes whose writes failed outside a poll pass (dispatch to a
    // just-died worker) re-dispatch here. fail_lane never drops a client.
    for (auto& [id, client] : clients_) {
      std::vector<int> broken_lanes;
      for (const auto& [shard_index, lane] : client->lanes) {
        if (!lane.open()) broken_lanes.push_back(shard_index);
      }
      for (const int shard_index : broken_lanes) fail_lane(*client, shard_index);
    }
  }

  // Clean exit: every child reaped, every owed reply flushed or its client
  // cut at the deadline.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    (void)::unlink(shard->port_file.c_str());
  }
  clients_.clear();
  if (!options_.quiet) {
    const SupervisorMetrics snap = metrics();
    std::cerr << "qspr_shard drained: accepted " << snap.accepted
              << ", answered " << snap.answered << ", redispatched "
              << snap.redispatches << ", restarts " << snap.restarts << "\n";
  }
  return 0;
}

std::string ShardSupervisor::stats_json(const std::string& id) const {
  const SupervisorMetrics snap = [&] {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    return metrics_;
  }();
  int up = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase == ShardPhase::Up) ++up;
  }
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.key("stats").begin_object();
  json.field("role", "supervisor");
  json.field("shards", options_.shard_count);
  json.field("shards_up", up);
  json.field("uptime_ms",
             ms_between(started_at_, std::chrono::steady_clock::now()));
  json.field("connections", static_cast<long long>(clients_.size()));
  json.field("sessions", static_cast<long long>(session_shards_.size()));
  json.field("accepted", snap.accepted);
  json.field("answered", snap.answered);
  json.field("redispatches", snap.redispatches);
  json.field("shed_shard_down", snap.shed_shard_down);
  json.field("parked", snap.parked);
  json.field("spawns", snap.spawns);
  json.field("restarts", snap.restarts);
  json.field("reaps", snap.reaps);
  json.field("crashes", snap.crashes);
  json.field("wedges", snap.wedges);
  json.field("health_ok", snap.health_ok);
  json.field("health_failures", snap.health_failures);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string ShardSupervisor::health_json(const std::string& id) const {
  int up = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->phase == ShardPhase::Up) ++up;
  }
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("health", draining_ ? "draining" : "ok");
  json.field("uptime_ms",
             ms_between(started_at_, std::chrono::steady_clock::now()));
  json.field("shards", options_.shard_count);
  json.field("shards_up", up);
  json.end_object();
  return json.str();
}

}  // namespace qspr
