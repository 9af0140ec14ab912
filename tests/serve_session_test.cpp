// qspr_serve session API: open/map/edit/close lifecycle over the wire.
//
// A session pins a fabric, remembers the last mapped circuit, and answers a
// map from its own results when it mapped the same circuit, fabric and
// options before. These tests run a real MappingServer in-process (same
// harness idiom as the fault-injection suite) and script byte-level clients
// against the session wire protocol: name minting (standalone "s<N>" vs
// sharded "s<shard>.<N>"), exact-resubmission and undo hits, the session
// scope of those results, one-map-per-session admission, the qasm_append
// contract, and drain behaviour with sessions open.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/net.hpp"
#include "qasm/writer.hpp"
#include "qecc/codes.hpp"
#include "service/request_codec.hpp"
#include "service/serve_loop.hpp"

namespace qspr {
namespace {

constexpr const char* kTinyQasm =
    "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nH q0\nC-X q0,q1\nC-X q1,q2\n"
    "MEASURE q2\n";

/// Circuits a session result must be reusable for: a toy program, and a
/// paper encoder whose negotiation diagnostic never converges.
std::vector<std::string> session_circuits() {
  return {kTinyQasm, write_qasm(make_encoder(QeccCode::Q7_1_3))};
}

/// In-process daemon under test; destructor drains and joins.
class ServeHarness {
 public:
  explicit ServeHarness(ServeOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<MappingServer>(std::move(options));
    server_->start();
    thread_ = std::thread([this] { exit_code_ = server_->serve(); });
  }

  ~ServeHarness() { drain_and_join(); }

  [[nodiscard]] int port() const { return server_->port(); }
  [[nodiscard]] MappingServer& server() { return *server_; }

  int drain_and_join() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
    return exit_code_;
  }

 private:
  std::unique_ptr<MappingServer> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

/// Blocking scripted client with a receive timeout, so a daemon bug shows
/// up as a test failure instead of a hung suite.
class RawClient {
 public:
  explicit RawClient(int port, int recv_timeout_ms = 30000)
      : fd_(connect_client("127.0.0.1", port)) {
    timeval timeout{};
    timeout.tv_sec = recv_timeout_ms / 1000;
    timeout.tv_usec = (recv_timeout_ms % 1000) * 1000;
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  void send_line(std::string_view line) {
    std::string rest = std::string(line) + "\n";
    std::string_view view = rest;
    while (!view.empty()) {
      const IoResult io = write_some(fd_.get(), view);
      ASSERT_NE(io.status, IoStatus::Error) << "client write failed";
      view.remove_prefix(io.bytes);
    }
  }

  std::string recv_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const IoResult io = read_some(fd_.get(), chunk, sizeof chunk);
      if (io.status != IoStatus::Ok) return {};  // timeout, EOF, or error
      buffer_.append(chunk, io.bytes);
    }
  }

  JsonValue recv_json() {
    const std::string line = recv_line();
    EXPECT_FALSE(line.empty()) << "no reply before timeout/EOF";
    return line.empty() ? JsonValue() : parse_json(line);
  }

 private:
  FileDescriptor fd_;
  std::string buffer_;
};

std::string session_map(const std::string& id, const std::string& session,
                        const std::string& qasm, bool append = false) {
  JsonWriter json;
  json.begin_object();
  json.field("type", "map");
  json.field("id", id);
  json.field("session", session);
  json.field(append ? "qasm_append" : "qasm", qasm);
  json.field("placer", "mc");
  json.field("m", 4);
  json.field("seed", 1);
  json.end_object();
  return json.str();
}

/// session_open and return the minted name.
std::string open_session(RawClient& client, const std::string& id) {
  client.send_line(R"({"type":"session_open","id":")" + id +
                   R"(","fabric":"paper"})");
  const JsonValue ack = client.recv_json();
  EXPECT_TRUE(ack.bool_or("ok", false));
  EXPECT_TRUE(ack.bool_or("open", false));
  return ack.string_or("session", "");
}

TEST(ServeSession, OpenMapEditCloseLifecycle) {
  ServeHarness harness;
  RawClient client(harness.port());

  const std::string name = open_session(client, "o1");
  EXPECT_EQ(name, "s1");  // standalone daemons mint bare "s<N>" names

  client.send_line(session_map("m1", name, kTinyQasm));
  const JsonValue first = client.recv_json();
  ASSERT_TRUE(first.bool_or("ok", false));
  EXPECT_EQ(first.string_or("session", ""), name);
  EXPECT_FALSE(first.string_or("result_fp", "").empty());

  // Edit via qasm_append: the server maps prior circuit + suffix, a
  // different program with a different result.
  client.send_line(session_map("m2", name, "C-X q0,q2\n", /*append=*/true));
  const JsonValue second = client.recv_json();
  ASSERT_TRUE(second.bool_or("ok", false));
  EXPECT_EQ(second.string_or("session", ""), name);
  EXPECT_NE(second.string_or("result_fp", ""), first.string_or("result_fp", ""));

  client.send_line(R"({"type":"session_close","id":"c1","session":")" + name +
                   R"("})");
  const JsonValue closed = client.recv_json();
  EXPECT_TRUE(closed.bool_or("ok", false));
  EXPECT_FALSE(closed.bool_or("open", true));

  // The name is dead after close.
  client.send_line(session_map("m3", name, kTinyQasm));
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_session");
  EXPECT_EQ(harness.drain_and_join(), 0);
}

/// The daemon's `stats` object.
JsonValue server_stats(RawClient& client) {
  client.send_line(R"({"type":"stats","id":"s"})");
  const JsonValue reply = client.recv_json();
  const JsonValue* stats = reply.find("stats");
  EXPECT_NE(stats, nullptr);
  return stats != nullptr ? *stats : JsonValue();
}

TEST(ServeSession, ExactResubmissionServedFromResultCache) {
  for (const std::string& qasm : session_circuits()) {
    SCOPED_TRACE(qasm.substr(0, 40));
    ServeHarness harness;
    RawClient client(harness.port());
    const std::string name = open_session(client, "o1");

    client.send_line(session_map("m1", name, qasm));
    const JsonValue first = client.recv_json();
    ASSERT_TRUE(first.bool_or("ok", false));
    const std::string fp = first.string_or("result_fp", "");
    ASSERT_FALSE(fp.empty());

    // Same circuit, fabric, and options again: the session's results
    // answer without placement or routing, bit-identical (process-stable
    // fingerprint).
    client.send_line(session_map("m2", name, qasm));
    const JsonValue replay = client.recv_json();
    ASSERT_TRUE(replay.bool_or("ok", false));
    EXPECT_EQ(replay.string_or("result_fp", ""), fp);

    // The hit is visible in the daemon's cache counters.
    const JsonValue stats = server_stats(client);
    EXPECT_EQ(stats.number_or("result_hits", -1), 1);
    EXPECT_EQ(stats.number_or("result_misses", -1), 1);
    EXPECT_EQ(stats.number_or("result_insertions", -1), 1);
    EXPECT_EQ(stats.number_or("open_sessions", -1), 1);
    EXPECT_EQ(harness.drain_and_join(), 0);
  }
}

TEST(ServeSession, UndoToAnEarlierCircuitServedFromResultCache) {
  for (const std::string& qasm : session_circuits()) {
    SCOPED_TRACE(qasm.substr(0, 40));
    ServeHarness harness;
    RawClient client(harness.port());
    const std::string name = open_session(client, "o1");

    client.send_line(session_map("m1", name, qasm));
    const JsonValue first = client.recv_json();
    ASSERT_TRUE(first.bool_or("ok", false));
    client.send_line(session_map("m2", name, "C-X q0,q2\n", /*append=*/true));
    ASSERT_TRUE(client.recv_json().bool_or("ok", false));

    // Back to the circuit before the edit: the session still holds its
    // result.
    client.send_line(session_map("m3", name, qasm));
    const JsonValue undo = client.recv_json();
    ASSERT_TRUE(undo.bool_or("ok", false));
    EXPECT_EQ(undo.string_or("result_fp", ""), first.string_or("result_fp", ""));
    EXPECT_GE(server_stats(client).number_or("result_hits", -1), 1);
    EXPECT_EQ(harness.drain_and_join(), 0);
  }
}

TEST(ServeSession, DiagnosticOnlyKnobChangeServedFromResultCache) {
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");
  const std::string qasm = write_qasm(make_encoder(QeccCode::Q7_1_3));

  client.send_line(session_map("m1", name, qasm));
  const JsonValue first = client.recv_json();
  ASSERT_TRUE(first.bool_or("ok", false));

  // The same request with another ALT landmark count: landmarks only shape
  // the negotiation diagnostic the daemon never runs, so the result is the
  // same and the session answers it.
  std::string retuned = session_map("m2", name, qasm);
  retuned.insert(retuned.size() - 1, R"(,"landmarks":0)");
  client.send_line(retuned);
  const JsonValue second = client.recv_json();
  ASSERT_TRUE(second.bool_or("ok", false));
  EXPECT_EQ(second.string_or("result_fp", ""),
            first.string_or("result_fp", ""));
  const JsonValue stats = server_stats(client);
  EXPECT_EQ(stats.number_or("result_hits", -1), 1);
  EXPECT_EQ(stats.number_or("result_misses", -1), 1);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, ResultsDieWithTheirSession) {
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string first_session = open_session(client, "o1");
  client.send_line(session_map("m1", first_session, kTinyQasm));
  const JsonValue first = client.recv_json();
  ASSERT_TRUE(first.bool_or("ok", false));
  client.send_line(R"({"type":"session_close","id":"c1","session":")" +
                   first_session + R"("})");
  ASSERT_TRUE(client.recv_json().bool_or("ok", false));

  // A fresh session starts with no results: the same circuit maps again
  // (to the same result) instead of hitting the closed session's entry.
  const std::string second_session = open_session(client, "o2");
  client.send_line(session_map("m2", second_session, kTinyQasm));
  const JsonValue second = client.recv_json();
  ASSERT_TRUE(second.bool_or("ok", false));
  EXPECT_EQ(second.string_or("result_fp", ""), first.string_or("result_fp", ""));
  const JsonValue stats = server_stats(client);
  EXPECT_EQ(stats.number_or("result_hits", -1), 0);
  EXPECT_EQ(stats.number_or("result_misses", -1), 2);
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, UnknownSessionIsAPerRequestError) {
  ServeHarness harness;
  RawClient client(harness.port());

  client.send_line(session_map("m1", "s999", kTinyQasm));
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_session");
  client.send_line(R"({"type":"session_close","id":"c1","session":"s999"})");
  EXPECT_EQ(client.recv_json().string_or("code", ""), "unknown_session");

  // The connection and daemon survive; stateless maps still work.
  client.send_line(session_map("m2", "", kTinyQasm));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, OneMapInFlightPerSession) {
  // The gate pins the session's first map in flight, so the overlapping
  // second map is refused deterministically — no wall-clock race.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, kTinyQasm));
  client.send_line(session_map("m2", name, kTinyQasm));
  const JsonValue busy = client.recv_json();
  EXPECT_EQ(busy.string_or("id", ""), "m2");
  EXPECT_EQ(busy.string_or("code", ""), "session_busy");

  gate->open();
  const JsonValue done = client.recv_json();
  EXPECT_EQ(done.string_or("id", ""), "m1");
  EXPECT_TRUE(done.bool_or("ok", false));

  // The session frees up once its map replies.
  client.send_line(session_map("m3", name, kTinyQasm));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, QasmAppendNeedsAMappedBaseCircuit) {
  ServeHarness harness;
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");

  client.send_line(session_map("m1", name, "C-X q0,q1\n", /*append=*/true));
  const JsonValue reply = client.recv_json();
  EXPECT_EQ(reply.string_or("code", ""), "bad_request");

  // Submitting a base circuit first makes the append legal.
  client.send_line(session_map("m2", name, kTinyQasm));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  client.send_line(session_map("m3", name, "C-X q0,q1\n", /*append=*/true));
  EXPECT_TRUE(client.recv_json().bool_or("ok", false));
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, ShardedDaemonsMintShardPrefixedNames) {
  // Sharded workers prefix the shard index so names are unique across a
  // qspr_shard fleet: the supervisor keys session->shard affinity on them.
  ServeOptions options;
  options.shard_id = 2;
  ServeHarness harness(options);
  RawClient client(harness.port());

  EXPECT_EQ(open_session(client, "o1"), "s2.1");
  EXPECT_EQ(open_session(client, "o2"), "s2.2");
  EXPECT_EQ(harness.drain_and_join(), 0);
}

TEST(ServeSession, DrainRefusesNewSessionsAndExitsZeroWithSessionsOpen) {
  // A gated map pins the daemon in the draining state (a drain with nothing
  // in flight goes quiescent and exits immediately), so the refusals below
  // are observed deterministically rather than racing serve()'s return.
  auto gate = std::make_shared<MapStartGate>();
  ServeOptions options;
  options.mapper_threads = 1;
  options.map_start_gate = gate;
  ServeHarness harness(options);
  RawClient client(harness.port());
  const std::string name = open_session(client, "o1");
  client.send_line(session_map("m1", name, kTinyQasm));
  // Make sure the map is admitted before the drain begins.
  client.send_line(R"({"type":"ping","id":"sync"})");
  EXPECT_EQ(client.recv_json().string_or("id", ""), "sync");

  harness.server().request_drain();
  client.send_line(R"({"type":"session_open","id":"o2","fabric":"paper"})");
  const JsonValue refused = client.recv_json();
  EXPECT_FALSE(refused.bool_or("ok", true));
  EXPECT_EQ(refused.string_or("code", ""), "draining");

  // The in-flight session map still completes and reaches the client.
  gate->open();
  const JsonValue done = client.recv_json();
  EXPECT_EQ(done.string_or("id", ""), "m1");
  EXPECT_TRUE(done.bool_or("ok", false));

  // Open sessions never block a clean exit — they die with the process.
  EXPECT_EQ(harness.drain_and_join(), 0);
}

}  // namespace
}  // namespace qspr
