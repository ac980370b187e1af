#include "common/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tbi::wire {

namespace {

constexpr std::size_t kReadChunk = 65536;

const std::uint32_t* crc_table() {
  static const auto table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t crc_feed(std::uint32_t c, const std::uint8_t* data, std::size_t size) {
  const std::uint32_t* t = crc_table();
  for (std::size_t i = 0; i < size; ++i) {
    c = t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return crc_feed(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::uint32_t frame_crc(FrameType type, const std::uint8_t* payload, std::size_t size) {
  std::uint8_t head[5];
  head[0] = static_cast<std::uint8_t>(type);
  const auto len = static_cast<std::uint32_t>(size);
  head[1] = static_cast<std::uint8_t>(len);
  head[2] = static_cast<std::uint8_t>(len >> 8);
  head[3] = static_cast<std::uint8_t>(len >> 16);
  head[4] = static_cast<std::uint8_t>(len >> 24);
  std::uint32_t c = crc_feed(0xFFFFFFFFu, head, sizeof head);
  return crc_feed(c, payload, size) ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_frame(FrameType type, const std::uint8_t* payload,
                                       std::size_t size) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + size);
  put_u32(out, kMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(size));
  put_u32(out, frame_crc(type, payload, size));
  out.insert(out.end(), payload, payload + size);
  return out;
}

std::vector<std::uint8_t> encode_frame(FrameType type, const std::string& payload) {
  return encode_frame(type, reinterpret_cast<const std::uint8_t*>(payload.data()),
                      payload.size());
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    // MSG_NOSIGNAL turns a dead peer into EPIPE instead of killing the
    // process; pipes/regular fds answer ENOTSOCK and fall back to write.
    ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 1000);
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_frame(int fd, FrameType type, const std::string& payload) {
  const auto bytes = encode_frame(type, payload);
  return write_all(fd, bytes.data(), bytes.size());
}

FrameReader::Status FrameReader::pump(int fd) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::NeedMore;
      return Status::Eof;  // ECONNRESET and friends: peer is gone
    }
    if (n == 0) return Status::Eof;
    buf_.insert(buf_.end(), chunk, chunk + n);
    return Status::NeedMore;
  }
}

FrameReader::Status FrameReader::next(Frame* out) {
  if (corrupt_) return Status::Corrupt;
  // Reclaim the consumed prefix once it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return Status::NeedMore;
  const std::uint8_t* h = buf_.data() + pos_;
  if (get_u32(h) != kMagic) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  const std::uint8_t type = h[4];
  const std::uint32_t len = get_u32(h + 5);
  const std::uint32_t crc = get_u32(h + 9);
  if (len > max_payload_) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  if (avail < kHeaderBytes + len) return Status::NeedMore;
  const std::uint8_t* payload = h + kHeaderBytes;
  if (frame_crc(static_cast<FrameType>(type), payload, len) != crc) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(payload, payload + len);
  pos_ += kHeaderBytes + len;
  return Status::Frame;
}

FrameReader::Status read_frame(int fd, FrameReader& reader, Frame* out) {
  using Status = FrameReader::Status;
  for (;;) {
    const Status s = reader.next(out);
    if (s != Status::NeedMore) return s;
    struct pollfd p{fd, POLLIN, 0};
    // Blocking callers (workers) may sit on a nonblocking-capable fd;
    // poll first so pump's EAGAIN path never busy-loops.
    if (::poll(&p, 1, -1) < 0 && errno != EINTR) return Status::Eof;
    const Status r = reader.pump(fd);
    if (r == Status::Eof) {
      // Drain any complete frame that arrived with the FIN.
      const Status last = reader.next(out);
      return last == Status::Frame ? last : Status::Eof;
    }
  }
}

}  // namespace tbi::wire
