// Client-side plumbing for the sharded mapping service: a deterministic
// exponential-backoff policy (shared by the supervisor's restart schedule
// and the client's retry pacing) and a blocking framed NDJSON client with
// connect/request timeouts and a bounded retry budget.
//
// ShardClient is what the chaos harness and the failover bench use to talk
// to qspr_shard: it retries transport failures (connection refused, reset,
// timeout) and explicit back-off replies (`overloaded`, `shard_down`,
// `draining`) — honouring the server's retry_after_ms hint — and gives up
// with qspr::Error once the attempt budget is spent. Retrying a map request
// is safe by contract: mapping is pure, so a duplicate execution returns a
// bit-identical result (same result_fp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/frame_stream.hpp"

namespace qspr {

/// Tuning for BackoffPolicy. jitter_frac spreads simultaneous retriers
/// apart; seed makes the spread reproducible (tests pin it).
struct BackoffOptions {
  int base_ms = 50;
  int cap_ms = 2000;
  /// Multiplicative jitter in [0, jitter_frac) added on top of the
  /// exponential delay; 0 = fully deterministic schedule.
  double jitter_frac = 0.25;
  std::uint64_t seed = 0;
};

/// Deterministic exponential backoff: delay(attempt) =
/// min(cap, base * 2^attempt * (1 + jitter_frac * u(seed, attempt))) with
/// u in [0, 1) from a splitmix-style hash — a pure function of
/// (options, attempt), so schedules replay exactly under a fixed seed and
/// unit tests need no clock.
class BackoffPolicy {
 public:
  explicit BackoffPolicy(BackoffOptions options = {});

  /// Delay before retry number `attempt` (0-based). Monotone
  /// non-decreasing in `attempt` up to the cap.
  [[nodiscard]] int delay_ms(int attempt) const;

  [[nodiscard]] const BackoffOptions& options() const { return options_; }

 private:
  BackoffOptions options_;
};

struct ShardClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connect_timeout_ms = 2000;
  /// Wall budget for one send+receive round trip (not the whole retry
  /// sequence). A request timing out tears the connection down — replies
  /// arriving later would desynchronise the line protocol.
  int request_timeout_ms = 30'000;
  /// Total tries request() spends before throwing (first attempt included).
  int max_attempts = 5;
  BackoffOptions backoff;
};

/// Blocking NDJSON request/reply client with reconnection, timeouts, and a
/// retry budget. Not thread-safe: one ShardClient per client thread.
class ShardClient {
 public:
  explicit ShardClient(ShardClientOptions options);

  /// One round trip, no retries: sends `line` (newline appended) and
  /// returns the next reply line. Returns false on any transport failure
  /// (connect/send/receive error or timeout); the connection is then torn
  /// down so the next call reconnects.
  [[nodiscard]] bool try_request(const std::string& line, std::string& reply);

  /// Retrying round trip: retries transport failures and replies whose
  /// `code` is overloaded / shard_down / draining, waiting the larger of
  /// the server's retry_after_ms hint and the backoff schedule between
  /// tries. Returns the first reply that is neither (ok:true results AND
  /// terminal errors like bad_request both count — only back-pressure is
  /// retried). Throws qspr::Error once max_attempts is exhausted.
  [[nodiscard]] std::string request(const std::string& line);

  /// Drops the current connection (next request reconnects).
  void disconnect();

  [[nodiscard]] bool connected() const { return stream_.open(); }

 private:
  [[nodiscard]] bool ensure_connected();
  [[nodiscard]] bool send_line(const std::string& line, int deadline_ms);
  [[nodiscard]] bool recv_line(std::string& reply, int deadline_ms);

  ShardClientOptions options_;
  BackoffPolicy backoff_;
  FrameStream stream_;
  std::vector<std::string> inbox_;  // frames received past the last reply
};

}  // namespace qspr
