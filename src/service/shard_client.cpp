#include "service/shard_client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace qspr {

namespace {

/// splitmix64 finaliser: a cheap, well-mixed pure hash for jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  return static_cast<int>(std::max<long long>(left, 0));
}

/// poll() on `fd` for reading or writing; returns the decoded entry.
PollEntry wait_for(int fd, bool write, int timeout_ms) {
  std::vector<PollEntry> entries(1);
  entries[0].fd = fd;
  entries[0].want_read = !write;
  entries[0].want_write = write;
  poll_fds(entries, timeout_ms);
  return entries[0];
}

/// True when `code` is back-pressure the client should wait out rather than
/// surface: the request itself was fine, the service just cannot take it
/// right now.
bool retryable_code(const std::string& code) {
  return code == "overloaded" || code == "shard_down" || code == "draining";
}

}  // namespace

BackoffPolicy::BackoffPolicy(BackoffOptions options) : options_(options) {
  require(options_.base_ms >= 0, "backoff base must be >= 0");
  require(options_.cap_ms >= options_.base_ms,
          "backoff cap must be >= base");
  require(options_.jitter_frac >= 0.0 && options_.jitter_frac <= 1.0,
          "backoff jitter fraction must be in [0, 1]");
}

int BackoffPolicy::delay_ms(int attempt) const {
  const int bounded = std::clamp(attempt, 0, 62);
  // Compute in double: base * 2^attempt overflows integers long before the
  // cap clamps it.
  const double scaled = static_cast<double>(options_.base_ms) *
                        std::min(std::pow(2.0, bounded), 1e12);
  const std::uint64_t h = mix64(
      options_.seed ^ (0x5bd1e995ull * (static_cast<std::uint64_t>(bounded) + 1)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double jittered = scaled * (1.0 + options_.jitter_frac * u);
  return static_cast<int>(
      std::min(jittered, static_cast<double>(options_.cap_ms)));
}

ShardClient::ShardClient(ShardClientOptions options)
    : options_(std::move(options)), backoff_(options_.backoff) {
  require(options_.port > 0, "shard client needs a port");
  require(options_.max_attempts >= 1, "shard client needs >= 1 attempt");
}

void ShardClient::disconnect() {
  stream_ = FrameStream();
  inbox_.clear();
}

bool ShardClient::ensure_connected() {
  if (stream_.open()) return true;
  inbox_.clear();
  try {
    // Replies carry the codec's frame cap: an over-cap reply is a transport
    // failure, not unbounded buffering.
    stream_ = FrameStream::connect(options_.host, options_.port,
                                   CodecLimits{}.max_frame_bytes);
  } catch (const std::exception&) {
    return false;
  }
  if (!stream_.open()) return false;  // synchronous refusal
  if (stream_.connecting()) {
    const PollEntry ready =
        wait_for(stream_.fd(), /*write=*/true, options_.connect_timeout_ms);
    if ((!ready.writable && !ready.broken) ||  // timeout
        !stream_.finish_connect()) {
      disconnect();
      return false;
    }
  }
  return true;
}

bool ShardClient::send_line(const std::string& line, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  if (!stream_.send(line)) return false;
  while (!stream_.outbox_empty()) {
    const int left = remaining_ms(deadline);
    if (left <= 0) return false;
    const PollEntry ready = wait_for(stream_.fd(), /*write=*/true, left);
    if (ready.broken || !ready.writable) return false;  // reset or timeout
    if (!stream_.flush()) return false;
  }
  return true;
}

bool ShardClient::recv_line(std::string& reply, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (inbox_.empty()) {
    const FrameStream::Read got = stream_.read(inbox_);
    if (got == FrameStream::Read::Frames) continue;
    if (got != FrameStream::Read::WouldBlock) {
      return false;  // EOF/reset before a full line, or an over-cap line
    }
    const int left = remaining_ms(deadline);
    if (left <= 0) return false;
    const PollEntry ready = wait_for(stream_.fd(), /*write=*/false, left);
    if (!ready.readable && !ready.broken) return false;  // timeout
  }
  reply = std::move(inbox_.front());
  inbox_.erase(inbox_.begin());
  return true;
}

bool ShardClient::try_request(const std::string& line, std::string& reply) {
  if (!ensure_connected()) return false;
  if (!send_line(line, options_.request_timeout_ms) ||
      !recv_line(reply, options_.request_timeout_ms)) {
    // A half-done round trip poisons the framing (a late reply would pair
    // with the wrong request), so the connection never survives a failure.
    disconnect();
    return false;
  }
  return true;
}

std::string ShardClient::request(const std::string& line) {
  std::string reply;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    int wait_ms = backoff_.delay_ms(attempt);
    if (try_request(line, reply)) {
      // Parse just enough to spot back-pressure; anything else — results
      // and terminal errors alike — is the caller's to interpret.
      std::string code;
      int hinted = 0;
      try {
        const JsonValue root = parse_json(reply);
        const JsonValue* code_value = root.find("code");
        if (code_value != nullptr &&
            code_value->kind() == JsonValue::Kind::String) {
          code = code_value->as_string();
        }
        const JsonValue* hint = root.find("retry_after_ms");
        if (hint != nullptr && hint->kind() == JsonValue::Kind::Number) {
          hinted = static_cast<int>(hint->as_number());
        }
      } catch (const std::exception&) {
        throw Error("shard client: unparseable reply: " + reply);
      }
      if (!retryable_code(code)) return reply;
      wait_ms = std::max(wait_ms, hinted);
    }
    if (attempt + 1 >= options_.max_attempts) break;
    if (wait_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
  }
  throw Error("shard client: retry budget exhausted after " +
              std::to_string(options_.max_attempts) + " attempts");
}

}  // namespace qspr
