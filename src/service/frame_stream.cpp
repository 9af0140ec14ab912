#include "service/frame_stream.hpp"

#include <utility>

namespace qspr {

FrameStream::FrameStream(FileDescriptor fd, std::size_t max_frame_bytes,
                         std::size_t max_outbox_bytes)
    : fd_(std::move(fd)),
      reader_(max_frame_bytes),
      max_outbox_bytes_(max_outbox_bytes) {}

FrameStream FrameStream::connect(const std::string& host, int port,
                                 std::size_t max_frame_bytes) {
  bool pending = false;
  FrameStream stream(connect_nonblocking(host, port, pending), max_frame_bytes);
  stream.connecting_ = pending;
  return stream;
}

bool FrameStream::finish_connect() {
  connecting_ = false;
  if (pending_connect_error(fd_.get()) != 0) {
    broken_ = true;
    return false;
  }
  return flush();
}

FrameStream::Read FrameStream::read(std::vector<std::string>& frames) {
  char buffer[16384];
  const IoResult io = read_some(fd_.get(), buffer, sizeof buffer);
  switch (io.status) {
    case IoStatus::WouldBlock:
      return Read::WouldBlock;
    case IoStatus::Closed:
      read_closed_ = true;
      return Read::Eof;
    case IoStatus::Error:
      broken_ = true;
      return Read::Error;
    case IoStatus::Ok:
      break;
  }
  return reader_.feed(std::string_view(buffer, io.bytes), frames)
             ? Read::Frames
             : Read::Oversized;
}

bool FrameStream::send(std::string_view line) {
  if (broken_) return true;
  if (outbox_.size() - outbox_at_ + line.size() + 1 > max_outbox_bytes_) {
    // Reader slower than the bound: cut it rather than buffer unboundedly.
    broken_ = true;
    return false;
  }
  outbox_.append(line);
  outbox_.push_back('\n');
  return flush();
}

bool FrameStream::flush() {
  while (!connecting_ && !broken_ && !outbox_empty()) {
    const IoResult io =
        write_some(fd_.get(), std::string_view(outbox_).substr(outbox_at_));
    if (io.status == IoStatus::WouldBlock) return true;  // poll for POLLOUT
    if (io.status != IoStatus::Ok) {
      broken_ = true;
      return false;
    }
    outbox_at_ += io.bytes;
  }
  if (outbox_empty()) {
    outbox_.clear();
    outbox_at_ = 0;
  }
  return true;
}

bool FrameStream::refuse_oversized() {
  close_after_flush_ = true;
  return send(serve_error_json("", "oversized",
                               "frame exceeds max_frame_bytes; closing"));
}

void FrameStream::refuse_connection(int retry_after_ms) {
  // Best effort: the daemons shed connections, never queue them.
  const std::string refusal = serve_error_json(
      "", "overloaded", "connection limit reached", retry_after_ms);
  (void)write_some(fd_.get(), refusal + "\n");
  fd_.reset();
}

PollEntry FrameStream::poll_entry() const {
  PollEntry entry;
  entry.fd = fd_.get();
  entry.want_read = !connecting_ && !read_closed_ && !close_after_flush_;
  entry.want_write = connecting_ || !outbox_empty();
  return entry;
}

bool FrameStream::reapable(bool replies_owed) const {
  return broken_ || (close_after_flush_ && outbox_empty()) ||
         (read_closed_ && outbox_empty() && !replies_owed);
}

}  // namespace qspr
