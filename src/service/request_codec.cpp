#include "service/request_codec.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"

namespace qspr {

bool FrameReader::feed(std::string_view bytes,
                       std::vector<std::string>& frames) {
  if (overflowed_) return false;
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t newline = bytes.find('\n', at);
    if (newline == std::string_view::npos) {
      partial_.append(bytes.substr(at));
      break;
    }
    partial_.append(bytes.substr(at, newline - at));
    at = newline + 1;
    // Strip the CR *before* the cap check: the cap bounds the logical frame,
    // and a CRLF client whose frame is exactly max_frame_bytes is within it.
    if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
    if (partial_.size() > max_frame_bytes_) {
      overflowed_ = true;
      return false;
    }
    frames.push_back(std::move(partial_));
    partial_.clear();
  }
  // The unterminated tail may still end in a CR whose LF is in the next
  // read; that CR is framing, not payload, so it doesn't count toward the
  // cap either.
  const std::size_t pending =
      (!partial_.empty() && partial_.back() == '\r') ? partial_.size() - 1
                                                     : partial_.size();
  if (pending > max_frame_bytes_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

namespace {

/// Typed field extraction with client-presentable diagnostics.
std::string string_field(const JsonValue& object, std::string_view key,
                         bool required) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    if (required) {
      throw Error("request is missing required field '" + std::string(key) +
                  "'");
    }
    return {};
  }
  if (value->kind() != JsonValue::Kind::String) {
    throw Error("request field '" + std::string(key) + "' must be a string");
  }
  return value->as_string();
}

double number_field(const JsonValue& object, std::string_view key,
                    double fallback, double min, double max) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  if (value->kind() != JsonValue::Kind::Number) {
    throw Error("request field '" + std::string(key) + "' must be a number");
  }
  const double number = value->as_number();
  if (number < min || number > max) {
    throw Error("request field '" + std::string(key) + "' out of range");
  }
  return number;
}

}  // namespace

ServeRequest parse_serve_request(std::string_view frame,
                                 const CodecLimits& limits,
                                 const MapperOptions& defaults) {
  JsonLimits json_limits;
  json_limits.max_bytes = limits.max_frame_bytes;
  json_limits.max_depth = limits.max_json_depth;
  JsonValue root;
  try {
    root = parse_json(frame, json_limits);
  } catch (const std::exception& e) {
    throw Error(std::string("malformed request frame: ") + e.what());
  }
  if (!root.is_object()) throw Error("request frame must be a JSON object");

  ServeRequest request;
  request.id = string_field(root, "id", /*required=*/false);
  request.options = defaults;
  const std::string type = string_field(root, "type", /*required=*/true);
  if (type == "ping") {
    request.kind = RequestKind::Ping;
    return request;
  }
  if (type == "stats") {
    request.kind = RequestKind::Stats;
    return request;
  }
  if (type == "health") {
    request.kind = RequestKind::Health;
    return request;
  }
  if (type == "cancel") {
    request.kind = RequestKind::Cancel;
    request.cancel_target = string_field(root, "target", /*required=*/true);
    return request;
  }
  if (type == "session_open") {
    request.kind = RequestKind::SessionOpen;
    if (request.id.empty()) {
      throw Error("session_open needs a non-empty 'id' to address the reply");
    }
    request.fabric = string_field(root, "fabric", /*required=*/false);
    return request;
  }
  if (type == "session_close") {
    request.kind = RequestKind::SessionClose;
    if (request.id.empty()) {
      throw Error("session_close needs a non-empty 'id' to address the reply");
    }
    request.session = string_field(root, "session", /*required=*/true);
    return request;
  }
  if (type != "map") throw Error("unknown request type: " + type);

  request.kind = RequestKind::Map;
  if (request.id.empty()) {
    throw Error("map requests need a non-empty 'id' to address the reply");
  }
  request.session = string_field(root, "session", /*required=*/false);
  request.qasm = string_field(root, "qasm", /*required=*/false);
  request.qasm_append = string_field(root, "qasm_append", /*required=*/false);
  if (!request.qasm_append.empty() && request.session.empty()) {
    throw Error("'qasm_append' needs a 'session' to append to");
  }
  if (!request.qasm.empty() && !request.qasm_append.empty()) {
    throw Error("use either 'qasm' (replace) or 'qasm_append' (edit), "
                "not both");
  }
  if (request.qasm.empty() && request.qasm_append.empty()) {
    throw Error("request field 'qasm' is empty");
  }
  request.fabric = string_field(root, "fabric", /*required=*/false);
  request.deadline_ms =
      number_field(root, "deadline_ms", 0.0, 0.0, 86'400'000.0);

  const std::string mapper = string_field(root, "mapper", /*required=*/false);
  if (!mapper.empty()) {
    const auto kind = mapper_kind_from_name(mapper);
    if (!kind.has_value()) throw Error("unknown mapper: " + mapper);
    request.options.kind = *kind;
  }
  const std::string placer = string_field(root, "placer", /*required=*/false);
  if (!placer.empty()) {
    const auto kind = placer_kind_from_name(placer);
    if (!kind.has_value()) throw Error("unknown placer: " + placer);
    request.options.placer = *kind;
  }
  // "m": 0 means "use the service default", matching the documented
  // absent-field semantics (the range floor admits it; only m > 0 applies).
  const double m = number_field(root, "m", 0.0, 0.0, 1e6);
  if (m > 0.0) {
    request.options.mvfb_seeds = static_cast<int>(m);
    request.options.monte_carlo_trials = static_cast<int>(m);
  }
  const JsonValue* seed = root.find("seed");
  if (seed != nullptr) {
    // The JSON reader is double-typed: integers above 2^53 would round
    // silently, so seeds are clamped there instead (documented in
    // docs/serve.md). Every value up to 2^53 round-trips exactly.
    constexpr double kSeedMax = 9007199254740992.0;  // 2^53
    const double value = number_field(root, "seed", 0.0, 0.0, 1e18);
    request.options.rng_seed =
        static_cast<std::uint64_t>(value > kSeedMax ? kSeedMax : value);
  }
  // Search-quality knobs of the negotiation diagnostic (absent = the
  // service defaults): ALT landmark count and the bounded-suboptimality
  // weight (1.0 keeps the exact search). The daemon never runs the
  // diagnostic, so they are validated and otherwise ignored (the options
  // fingerprint mixes them only under negotiation_report).
  if (root.find("landmarks") != nullptr) {
    request.options.route_landmarks = static_cast<int>(
        number_field(root, "landmarks", 0.0, 0.0, 1024.0));
  }
  request.options.route_heuristic_weight =
      number_field(root, "heuristic_weight",
                   request.options.route_heuristic_weight, 1.0, 16.0);
  return request;
}

std::string map_result_fingerprint(const MapResult& result) {
  // FNV-1a 64: process-stable (unlike std::hash), so a client in another
  // process can reproduce it from its own map_program run.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix_bytes = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  const auto mix_i64 = [&](long long v) { mix_bytes(&v, sizeof(v)); };
  const auto mix_placement = [&](const Placement& placement) {
    mix_i64(static_cast<long long>(placement.qubit_count()));
    for (std::size_t q = 0; q < placement.qubit_count(); ++q) {
      mix_i64(placement.trap_of(QubitId::from_index(q)).value());
    }
  };
  mix_i64(static_cast<long long>(result.latency));
  mix_i64(static_cast<long long>(result.ideal_latency));
  mix_i64(result.placement_runs);
  mix_placement(result.initial_placement);
  mix_placement(result.final_placement);
  const std::string trace = result.trace.to_string();
  mix_bytes(trace.data(), trace.size());

  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

void write_map_result_fields(JsonWriter& json, const MapResult& result) {
  json.field("mapper", to_string(result.kind));
  json.field("latency_us", static_cast<long long>(result.latency));
  json.field("ideal_latency_us", static_cast<long long>(result.ideal_latency));
  json.field("routing_us", static_cast<long long>(result.stats.total_routing));
  json.field("congestion_us",
             static_cast<long long>(result.stats.total_congestion));
  json.field("moves", result.stats.moves);
  json.field("turns", result.stats.turns);
  json.field("placement_runs", result.placement_runs);
  json.field("trial_cpu_ms", result.trial_cpu_ms);
  json.field("setup_ms", result.setup_ms);
  json.field("nodes_settled", result.stats.nodes_settled);
}

std::string serve_result_json(const std::string& id, const MapResult& result,
                              double queue_ms, double map_ms,
                              const std::string& session) {
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  if (!session.empty()) json.field("session", session);
  write_map_result_fields(json, result);
  json.field("queue_ms", queue_ms);
  json.field("map_ms", map_ms);
  json.field("result_fp", map_result_fingerprint(result));
  json.end_object();
  return json.str();
}

std::string serve_session_json(const std::string& id,
                               const std::string& session, bool open) {
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("session", session);
  json.field("open", open);
  json.end_object();
  return json.str();
}

std::string serve_error_json(const std::string& id, std::string_view code,
                             std::string_view message, int retry_after_ms) {
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", false);
  json.field("code", std::string(code));
  json.field("error", std::string(message));
  if (retry_after_ms > 0) json.field("retry_after_ms", retry_after_ms);
  json.end_object();
  return json.str();
}

std::string serve_pong_json(const std::string& id) {
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("pong", true);
  json.end_object();
  return json.str();
}

std::string serve_health_json(const std::string& id, bool draining,
                              double uptime_ms, int shard_id, int queue_depth,
                              int in_flight) {
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("health", draining ? "draining" : "ok");
  json.field("uptime_ms", uptime_ms);
  if (shard_id >= 0) json.field("shard_id", shard_id);
  json.field("queue_depth", queue_depth);
  json.field("in_flight", in_flight);
  json.end_object();
  return json.str();
}

std::string serve_cancel_ack_json(const std::string& id,
                                  const std::string& target, bool found) {
  JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", found);
  if (!found) {
    json.field("code", "unknown_request");
    json.field("error", "cancel target not in flight: " + target);
  }
  json.field("target", target);
  json.end_object();
  return json.str();
}

std::shared_ptr<const Fabric> FabricSource::get(const std::string& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto hit = cache_.find(spec);
  if (hit != cache_.end()) return hit->second;
  // Parsing under the lock serialises concurrent first sights of one spec —
  // acceptable: it happens once per distinct fabric for the process life.
  std::shared_ptr<const Fabric> fabric;
  if (spec.empty() || spec == "paper") {
    fabric = std::make_shared<const Fabric>(make_paper_fabric());
  } else {
    fabric = std::make_shared<const Fabric>(parse_fabric_file(spec));
  }
  cache_.emplace(spec, fabric);
  return fabric;
}

}  // namespace qspr
