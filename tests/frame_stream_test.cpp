// FrameStream over real sockets: partial writes, the outbox bound, writes
// held behind an in-progress connect, framing at the read step (CRLF, the
// frame cap, EOF mid-frame) and the reap predicate. Most cases run over a
// non-blocking socketpair; the connect case needs a TCP listener.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/net.hpp"
#include "service/frame_stream.hpp"

namespace qspr {
namespace {

/// A connected non-blocking AF_UNIX stream pair: `local` becomes the
/// FrameStream under test, `peer` is driven raw.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    local.reset(fds[0]);
    peer.reset(fds[1]);
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
  }

  FileDescriptor local;
  FileDescriptor peer;
};

/// Writes raw bytes to `fd` until the socket will take no more.
void fill_socket(int fd) {
  const std::string block(4096, 'f');
  while (write_some(fd, block).status == IoStatus::Ok) {
  }
}

/// Everything readable on `fd` right now.
std::string drain(int fd) {
  std::string bytes;
  char buffer[4096];
  for (IoResult io = read_some(fd, buffer, sizeof buffer);
       io.status == IoStatus::Ok; io = read_some(fd, buffer, sizeof buffer)) {
    bytes.append(buffer, io.bytes);
  }
  return bytes;
}

void write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const IoResult io = write_some(fd, bytes);
    ASSERT_EQ(io.status, IoStatus::Ok);
    bytes.remove_prefix(io.bytes);
  }
}

TEST(FrameStreamTest, PartialWriteResumesAtTheNextByte) {
  SocketPair pair;
  FrameStream stream(std::move(pair.local), 1 << 20);
  std::string line;
  for (int i = 0; line.size() < (1u << 20); ++i) {
    line += std::to_string(i) + ",";
  }
  ASSERT_TRUE(stream.send(line));
  ASSERT_FALSE(stream.outbox_empty()) << "the socket took the whole line";
  EXPECT_TRUE(stream.poll_entry().want_write);

  std::string received;
  while (received.size() < line.size() + 1) {
    const std::string chunk = drain(pair.peer.get());
    if (chunk.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    received += chunk;
    ASSERT_TRUE(stream.flush());
  }
  EXPECT_TRUE(stream.outbox_empty());
  EXPECT_FALSE(stream.poll_entry().want_write);
  EXPECT_EQ(received, line + "\n");
}

TEST(FrameStreamTest, OutboxBoundBreaksTheStreamAndQueuesNothing) {
  SocketPair pair;
  fill_socket(pair.local.get());
  // Bound of 10 bytes: one 8-byte line (9 with its newline) fits, and so
  // does an empty line after it; one byte more does not.
  FrameStream stream(std::move(pair.local), 1 << 20, 10);
  ASSERT_TRUE(stream.send("12345678"));
  ASSERT_TRUE(stream.send(""));
  EXPECT_FALSE(stream.outbox_empty());
  EXPECT_FALSE(stream.broken());
  EXPECT_FALSE(stream.send("x"));
  EXPECT_TRUE(stream.broken());
  EXPECT_TRUE(stream.send("y")) << "a send on a broken stream is dropped";

  // A line alone over the bound is refused before anything is queued.
  SocketPair second;
  fill_socket(second.local.get());
  FrameStream oversized(std::move(second.local), 1 << 20, 10);
  EXPECT_FALSE(oversized.send("0123456789"));
  EXPECT_TRUE(oversized.broken());
  EXPECT_TRUE(oversized.outbox_empty());
  const std::string bytes = drain(second.peer.get());
  EXPECT_EQ(bytes.find_first_not_of('f'), std::string::npos);
}

TEST(FrameStreamTest, ConnectingStreamHoldsWritesUntilTheConnectCompletes) {
  // With a backlog of 0 and nobody accepting, the listener's accept queue
  // fills after a connect or two, and a later non-blocking connect stays in
  // progress.
  ListenSocket listener("127.0.0.1", 0, /*backlog=*/0);
  std::vector<FrameStream> queued;
  FrameStream stream;
  for (int attempt = 0; attempt < 16 && !stream.connecting(); ++attempt) {
    stream = FrameStream::connect("127.0.0.1", listener.port(), 1 << 16);
    ASSERT_TRUE(stream.open());
    if (!stream.connecting()) queued.push_back(std::move(stream));
  }
  if (!stream.connecting()) GTEST_SKIP() << "every loopback connect completed";

  ASSERT_TRUE(stream.send("held"));
  EXPECT_FALSE(stream.outbox_empty());
  EXPECT_TRUE(stream.poll_entry().want_write);
  EXPECT_FALSE(stream.poll_entry().want_read);
  ASSERT_TRUE(stream.flush());
  EXPECT_FALSE(stream.outbox_empty()) << "flush wrote before the connect";

  // Free the accept queue so the handshake can complete.
  std::vector<FileDescriptor> accepted;
  for (FileDescriptor fd = listener.accept_client(); fd.valid();
       fd = listener.accept_client()) {
    accepted.push_back(std::move(fd));
  }
  std::vector<PollEntry> entries = {stream.poll_entry()};
  poll_fds(entries, 10'000);
  ASSERT_TRUE(entries[0].writable || entries[0].broken);
  ASSERT_TRUE(stream.finish_connect());
  EXPECT_TRUE(stream.outbox_empty());

  // The stream's connection may already sit among the accepted ones.
  std::string received;
  for (int i = 0; i < 10'000 && received.size() < 5; ++i) {
    for (FileDescriptor fd = listener.accept_client(); fd.valid();
         fd = listener.accept_client()) {
      accepted.push_back(std::move(fd));
    }
    for (const FileDescriptor& fd : accepted) received += drain(fd.get());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received, "held\n");
}

TEST(FrameStreamTest, ReadStepStripsCrlfAndStopsAtAnOverCapFrame) {
  SocketPair pair;
  FrameStream stream(std::move(pair.local), 8);
  std::vector<std::string> frames;
  EXPECT_EQ(stream.read(frames), FrameStream::Read::WouldBlock);

  write_all(pair.peer.get(), "one\r\ntwo\n");
  EXPECT_EQ(stream.read(frames), FrameStream::Read::Frames);
  EXPECT_EQ(frames, (std::vector<std::string>{"one", "two"}));

  frames.clear();
  write_all(pair.peer.get(), "ok\n0123456789\nlate\n");
  EXPECT_EQ(stream.read(frames), FrameStream::Read::Oversized);
  EXPECT_EQ(frames, (std::vector<std::string>{"ok"}));
  EXPECT_FALSE(stream.broken()) << "an oversized frame is the caller's call";
}

TEST(FrameStreamTest, EofDropsAPartialTrailingFrame) {
  SocketPair pair;
  FrameStream stream(std::move(pair.local), 64);
  write_all(pair.peer.get(), "done\npart");
  pair.peer.reset();
  std::vector<std::string> frames;
  EXPECT_EQ(stream.read(frames), FrameStream::Read::Frames);
  EXPECT_EQ(stream.read(frames), FrameStream::Read::Eof);
  EXPECT_EQ(frames, (std::vector<std::string>{"done"}));
  EXPECT_TRUE(stream.read_closed());
  EXPECT_FALSE(stream.poll_entry().want_read);
}

TEST(FrameStreamTest, ReapPredicateCoversItsThreeCases) {
  {  // Orderly EOF: reapable once flushed and owing nothing.
    SocketPair pair;
    FrameStream stream(std::move(pair.local), 64);
    EXPECT_FALSE(stream.reapable(/*replies_owed=*/false));
    pair.peer.reset();
    std::vector<std::string> frames;
    ASSERT_EQ(stream.read(frames), FrameStream::Read::Eof);
    EXPECT_TRUE(stream.reapable(false));
    EXPECT_FALSE(stream.reapable(true));
  }
  {  // Closed for cause: reapable once the outbox drains, owed or not.
    SocketPair pair;
    fill_socket(pair.local.get());
    FrameStream stream(std::move(pair.local), 64);
    ASSERT_TRUE(stream.refuse_oversized());
    EXPECT_TRUE(stream.closing());
    EXPECT_FALSE(stream.poll_entry().want_read);
    EXPECT_FALSE(stream.reapable(true));
    std::string received;
    while (!stream.outbox_empty()) {
      received += drain(pair.peer.get());
      ASSERT_TRUE(stream.flush());
    }
    received += drain(pair.peer.get());
    EXPECT_NE(received.find("\"code\":\"oversized\""), std::string::npos);
    EXPECT_TRUE(stream.reapable(true));
  }
  {  // Broken: reapable at once, with replies owed and bytes unflushed.
    SocketPair pair;
    fill_socket(pair.local.get());
    FrameStream stream(std::move(pair.local), 64);
    ASSERT_TRUE(stream.send("pending"));
    stream.mark_broken();
    EXPECT_TRUE(stream.reapable(true));
  }
}

}  // namespace
}  // namespace qspr
