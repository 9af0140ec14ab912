// FrameStream: one non-blocking NDJSON socket — framing, reply outbox and
// connection lifecycle, shared by every socket of qspr_serve, qspr_shard and
// ShardClient. It decides nothing: each step reports what happened on the
// wire, and the caller picks the policy (which metric counts, whether a
// failure breaks a client, fails a lane or fails a shard).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.hpp"
#include "service/request_codec.hpp"

namespace qspr {

class FrameStream {
 public:
  /// Outcome of one read step (at most one read from the socket).
  enum class Read : std::uint8_t {
    Frames,      // bytes arrived; completed frames were appended
    WouldBlock,  // nothing to read right now
    Eof,         // orderly EOF: sets read_closed; a partial frame is dropped
    Error,       // connection-level failure: sets broken
    Oversized,   // a frame passed the cap; the frames before it were
                 // appended, and no later frame will come out
  };

  FrameStream() = default;
  /// An established socket. `max_outbox_bytes` bounds the unflushed bytes
  /// (client connections); lanes and the control lane run unbounded.
  FrameStream(FileDescriptor fd, std::size_t max_frame_bytes,
              std::size_t max_outbox_bytes = SIZE_MAX);
  /// Starts a non-blocking connect: a refused connect yields a stream that
  /// is not open(); setup failures throw qspr::Error.
  [[nodiscard]] static FrameStream connect(const std::string& host, int port,
                                           std::size_t max_frame_bytes);

  [[nodiscard]] bool open() const { return fd_.valid() && !broken_; }
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// A connect is in progress; writes are held until finish_connect().
  [[nodiscard]] bool connecting() const { return connecting_; }
  /// For a connect that polled writable or broken: false (and broken) when
  /// the handshake failed, else the held writes start flushing.
  bool finish_connect();

  Read read(std::vector<std::string>& frames);
  /// Queues `line` plus a newline and flushes what the socket takes. False
  /// when this call broke the stream: a write failed, or the line would
  /// take the outbox past its bound (then nothing is queued). Dropped on a
  /// broken stream.
  bool send(std::string_view line);
  /// Writes until the socket would block; false when this call broke it.
  bool flush();
  [[nodiscard]] bool outbox_empty() const {
    return outbox_at_ >= outbox_.size();
  }

  /// Queues the `oversized` error and closes once it is flushed; returns
  /// send()'s result.
  bool refuse_oversized();
  /// Connection-cap refusal at accept time: one best-effort `overloaded`
  /// line carrying `retry_after_ms`, then the socket is closed.
  void refuse_connection(int retry_after_ms);

  /// What the next poll() should wait for.
  [[nodiscard]] PollEntry poll_entry() const;

  [[nodiscard]] bool read_closed() const { return read_closed_; }
  [[nodiscard]] bool closing() const { return close_after_flush_; }
  [[nodiscard]] bool broken() const { return broken_; }
  void mark_broken() { broken_ = true; }
  /// A client stream is done: broken, closed for cause and flushed, or at
  /// EOF, flushed and owing no replies.
  [[nodiscard]] bool reapable(bool replies_owed) const;

 private:
  FileDescriptor fd_;
  FrameReader reader_{0};
  std::size_t max_outbox_bytes_ = SIZE_MAX;
  std::string outbox_;
  std::size_t outbox_at_ = 0;  // bytes of outbox_ already written
  bool connecting_ = false;
  bool read_closed_ = false;        // orderly EOF: no more frames
  bool close_after_flush_ = false;  // closed for cause once flushed
  bool broken_ = false;             // drop now, outbox and all
};

}  // namespace qspr
