// Wire-codec regressions for qspr_serve's newline-delimited JSON protocol.
// The FrameReader CRLF cases and the "m"/"seed" range cases are regression
// tests: each failed before its fix (CR counted against the frame cap; m=0
// rejected instead of meaning "server default"; seeds above 2^53 silently
// rounded by the double-typed JSON reader).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/result_cache.hpp"
#include "service/request_codec.hpp"

namespace qspr {
namespace {

TEST(FrameReaderTest, SplitsFramesAndKeepsPartialTail) {
  FrameReader reader(64);
  std::vector<std::string> frames;
  EXPECT_TRUE(reader.feed("one\ntwo\nthr", frames));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "one");
  EXPECT_EQ(frames[1], "two");
  EXPECT_EQ(reader.partial_bytes(), 3u);
  EXPECT_TRUE(reader.feed("ee\n", frames));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[2], "three");
}

TEST(FrameReaderTest, CrlfFrameAtExactlyTheCapIsAccepted) {
  // The cap bounds the logical frame; the CR of a CRLF client is framing,
  // not payload. Pre-fix, the CR was counted and a cap-sized frame from a
  // CRLF client overflowed the connection.
  const std::size_t cap = 16;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  const std::string payload(cap, 'x');
  EXPECT_TRUE(reader.feed(payload + "\r\n", frames));
  EXPECT_FALSE(reader.overflowed());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], payload);
}

TEST(FrameReaderTest, SplitCrlfAtTheCapIsAccepted) {
  // Same case, but the CR arrives in one read and the LF in the next — the
  // unterminated tail must not count the pending CR against the cap either.
  const std::size_t cap = 16;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  const std::string payload(cap, 'x');
  EXPECT_TRUE(reader.feed(payload + "\r", frames));
  EXPECT_FALSE(reader.overflowed());
  EXPECT_TRUE(frames.empty());
  EXPECT_TRUE(reader.feed("\n", frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], payload);
}

TEST(FrameReaderTest, OverCapFrameOverflowsPermanently) {
  const std::size_t cap = 16;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  const std::string payload(cap + 1, 'x');
  EXPECT_FALSE(reader.feed(payload + "\n", frames));
  EXPECT_TRUE(reader.overflowed());
  EXPECT_TRUE(frames.empty());
  // Permanently: even a well-formed follow-up frame is refused.
  EXPECT_FALSE(reader.feed("ok\n", frames));
}

TEST(FrameReaderTest, CrInsideThePayloadStillCounts) {
  // Only the single CR immediately before the LF is framing; an interior CR
  // is payload and counts toward the cap.
  const std::size_t cap = 4;
  FrameReader reader(cap);
  std::vector<std::string> frames;
  EXPECT_TRUE(reader.feed("ab\rc\n", frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "ab\rc");
  FrameReader strict(3);
  EXPECT_FALSE(strict.feed("ab\rc\n", frames));
  EXPECT_TRUE(strict.overflowed());
}

class ParseRequestTest : public ::testing::Test {
 protected:
  ServeRequest parse(const std::string& frame) {
    return parse_serve_request(frame, limits_, defaults_);
  }

  CodecLimits limits_;
  MapperOptions defaults_;
};

TEST_F(ParseRequestTest, MZeroMeansServerDefault) {
  // "m": 0 must behave exactly like an absent "m" (the documented
  // semantics); pre-fix it was rejected as out of range.
  defaults_.monte_carlo_trials = 7;
  defaults_.mvfb_seeds = 9;
  const ServeRequest request =
      parse(R"({"type":"map","id":"r1","qasm":"qubit q0;","m":0})");
  EXPECT_EQ(request.options.monte_carlo_trials, 7);
  EXPECT_EQ(request.options.mvfb_seeds, 9);

  const ServeRequest positive =
      parse(R"({"type":"map","id":"r2","qasm":"qubit q0;","m":5})");
  EXPECT_EQ(positive.options.monte_carlo_trials, 5);
  EXPECT_EQ(positive.options.mvfb_seeds, 5);
}

TEST_F(ParseRequestTest, NegativeMIsRejected) {
  EXPECT_THROW(parse(R"({"type":"map","id":"r1","qasm":"q","m":-1})"),
               Error);
}

TEST_F(ParseRequestTest, SeedRoundTripsUpTo2To53AndClampsAbove) {
  // 2^53 is the largest integer the double-typed JSON reader represents
  // exactly; larger seeds clamp there instead of silently rounding.
  const ServeRequest exact = parse(
      R"({"type":"map","id":"r1","qasm":"q","seed":9007199254740992})");
  EXPECT_EQ(exact.options.rng_seed, 9007199254740992ULL);

  const ServeRequest above = parse(
      R"({"type":"map","id":"r2","qasm":"q","seed":10000000000000000})");
  EXPECT_EQ(above.options.rng_seed, 9007199254740992ULL);

  const ServeRequest small =
      parse(R"({"type":"map","id":"r3","qasm":"q","seed":42})");
  EXPECT_EQ(small.options.rng_seed, 42ULL);
}

TEST_F(ParseRequestTest, RetiredKnobsParseAndKeepServerDefaults) {
  // route_jobs and report were never per-request overrides; a frame that
  // still carries them must parse and map with the server defaults.
  defaults_.mvfb_seeds = 9;
  defaults_.route_landmarks = 3;
  const ServeRequest request = parse(
      R"({"type":"map","id":"r1","qasm":"q","route_jobs":4,"report":true})");
  EXPECT_EQ(request.kind, RequestKind::Map);
  EXPECT_EQ(request.options.negotiation_report, defaults_.negotiation_report);
  EXPECT_EQ(request.options.jobs, defaults_.jobs);
  EXPECT_EQ(request.options.mvfb_seeds, 9);
  EXPECT_EQ(request.options.route_landmarks, 3);
  EXPECT_EQ(request.options.route_heuristic_weight,
            defaults_.route_heuristic_weight);
  EXPECT_EQ(mapper_options_fingerprint(request.options),
            mapper_options_fingerprint(defaults_));
}

TEST_F(ParseRequestTest, SearchKnobsAreApplied) {
  const ServeRequest request = parse(
      R"({"type":"map","id":"r1","qasm":"q","landmarks":0,"heuristic_weight":1.5})");
  EXPECT_EQ(request.options.route_landmarks, 0);
  EXPECT_EQ(request.options.route_heuristic_weight, 1.5);
  EXPECT_THROW(
      parse(R"({"type":"map","id":"r2","qasm":"q","heuristic_weight":0.5})"),
      Error);
}

TEST_F(ParseRequestTest, SessionFramesParse) {
  const ServeRequest open =
      parse(R"({"type":"session_open","id":"o1","fabric":"paper"})");
  EXPECT_EQ(open.kind, RequestKind::SessionOpen);
  EXPECT_EQ(open.fabric, "paper");

  const ServeRequest in_session = parse(
      R"({"type":"map","id":"r1","session":"s1","qasm_append":"cnot q0, q1;"})");
  EXPECT_EQ(in_session.kind, RequestKind::Map);
  EXPECT_EQ(in_session.session, "s1");
  EXPECT_EQ(in_session.qasm_append, "cnot q0, q1;");
  EXPECT_TRUE(in_session.qasm.empty());

  const ServeRequest close =
      parse(R"({"type":"session_close","id":"c1","session":"s1"})");
  EXPECT_EQ(close.kind, RequestKind::SessionClose);
  EXPECT_EQ(close.session, "s1");
}

// ---------------------------------------------------------------------------
// Seeded mutational fuzzing of the wire codec, from frames a qspr_serve
// session sends (the CI serve smokes and docs/serve.md). Fixed seed and
// iteration count, so a failure reproduces exactly; the ASan+UBSan build
// runs these too.

const std::vector<std::string>& recorded_frames() {
  static const std::vector<std::string> frames = {
      R"({"type":"map","id":"good-0","qasm":"QUBIT q0,0\nQUBIT q1,0\nH q0\nC-X q0,q1\nMEASURE q1\n","placer":"mc","m":3,"seed":1})",
      R"({"type":"map","id":"r1","qasm":"QUBIT q0,0\nH q0\n","fabric":"paper","mapper":"qspr","placer":"mvfb","m":8,"seed":1,"deadline_ms":5000,"landmarks":8,"heuristic_weight":1.0})",
      R"({"type":"ping","id":"alive"})",
      R"({"type":"stats","id":"s"})",
      R"({"type":"health","id":"hb"})",
      R"({"type":"cancel","id":"c1","target":"r1"})",
      R"({"type":"session_open","id":"o1","fabric":"paper"})",
      R"({"type":"map","id":"m2","session":"s1","qasm_append":"C-X q0,q2","placer":"mc","m":4,"seed":1})",
      R"({"type":"session_close","id":"c2","session":"s1"})",
  };
  return frames;
}

/// One random edit: flip a byte, insert random bytes, delete a range, or
/// splice in a chunk of another recorded frame.
void mutate_frame(std::string& frame, Rng& rng) {
  const std::string& donor =
      recorded_frames()[rng.uniform_index(recorded_frames().size())];
  const std::size_t at = rng.uniform_index(frame.size() + 1);
  switch (rng.uniform_index(4)) {
    case 0:
      if (!frame.empty()) {
        frame[rng.uniform_index(frame.size())] =
            static_cast<char>(rng.uniform_index(256));
      }
      break;
    case 1:
      for (std::size_t n = 1 + rng.uniform_index(8); n > 0; --n) {
        frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<char>(rng.uniform_index(256)));
      }
      break;
    case 2:
      if (at < frame.size()) frame.erase(at, 1 + rng.uniform_index(16));
      break;
    default:
      frame.replace(at, rng.uniform_index(17),
                    donor.substr(rng.uniform_index(donor.size()),
                                 1 + rng.uniform_index(32)));
      break;
  }
}

TEST(RequestCodecFuzz, MutatedServeFramesParseOrThrowError) {
  Rng rng(2026);
  const CodecLimits limits;
  constexpr int kIterations = 4000;
  int parsed = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string frame =
        recorded_frames()[rng.uniform_index(recorded_frames().size())];
    for (std::size_t m = 1 + rng.uniform_index(4); m > 0; --m) {
      mutate_frame(frame, rng);
    }
    try {
      (void)parse_serve_request(frame, limits, MapperOptions{});
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iteration << ": non-qspr exception "
                    << e.what() << " on frame:\n"
                    << frame;
    }
  }
  // Both outcomes must occur, or the mutator has stopped exercising one
  // side of the codec.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed + rejected, kIterations);
}

TEST(RequestCodecFuzz, FramingIsIndependentOfChunkBoundaries) {
  Rng rng(2027);
  constexpr std::size_t kCap = 160;  // some recorded frames exceed it
  int overflowed = 0;
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string stream;
    for (std::size_t n = 1 + rng.uniform_index(6); n > 0; --n) {
      std::string frame =
          recorded_frames()[rng.uniform_index(recorded_frames().size())];
      if (rng.uniform_index(2) == 0) mutate_frame(frame, rng);
      stream += frame + (rng.uniform_index(3) == 0 ? "\r\n" : "\n");
    }
    FrameReader whole(kCap);
    std::vector<std::string> expected;
    const bool whole_ok = whole.feed(stream, expected);
    overflowed += whole_ok ? 0 : 1;

    FrameReader chunked(kCap);
    std::vector<std::string> frames;
    bool chunked_ok = true;
    for (std::size_t at = 0; at < stream.size() && chunked_ok;) {
      const std::size_t size = 1 + rng.uniform_index(48);
      chunked_ok = chunked.feed(std::string_view(stream).substr(at, size),
                                frames);
      at += size;
    }
    EXPECT_EQ(chunked_ok, whole_ok) << "iteration " << iteration;
    EXPECT_EQ(frames, expected) << "iteration " << iteration;
  }
  EXPECT_GT(overflowed, 0);
  EXPECT_LT(overflowed, 500);
}

}  // namespace
}  // namespace qspr
