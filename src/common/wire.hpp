/// \file wire.hpp
/// Length-prefixed, CRC-checked message framing for the multi-process
/// sweep backend (src/sim/dsweep.hpp).
///
/// A frame is `magic u32 | type u8 | payload_len u32 | crc32 u32` (all
/// little-endian) followed by the payload bytes. The CRC covers the type
/// byte, the length field and the payload, so any single-bit corruption
/// of a frame — header or body — is detected. Stream carriers are local
/// socketpairs (sim/dsweep.hpp) and TCP connections to remote workers
/// (sim/net_transport.hpp); the fault-injection harness deliberately
/// corrupts and truncates batches, and the parent must detect both and
/// recover by discarding the worker, not by merging garbage records.
///
/// `FrameReader` is an incremental decoder built for the parent's
/// nonblocking poll loop: feed it whatever bytes arrived, pull complete
/// frames out. Workers use the blocking `read_frame` helper instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tbi::wire {

enum class FrameType : std::uint8_t {
  JobConfig = 1,  ///< parent -> worker: kernel, job JSON, seed, faults
  Assign = 2,     ///< parent -> worker: one cell index (decimal string)
  Record = 3,     ///< worker -> parent: {"cell": i, "record": {...}}
  Heartbeat = 4,  ///< worker -> parent: liveness, empty payload
  Done = 5,       ///< parent -> worker: no more cells, exit cleanly
  Error = 6,      ///< worker -> parent: deterministic kernel failure
  Hello = 7,      ///< remote worker -> driver: {"proto": V, "fingerprint": F}
  Reject = 8,     ///< driver -> remote worker: handshake refused (reason)
};

constexpr std::uint32_t kMagic = 0x31494254u;  // "TBI1" on the wire (LE)
constexpr std::size_t kHeaderBytes = 13;       // magic + type + len + crc
/// Wire protocol version, exchanged in the TCP Hello handshake. Bump on
/// any framing or message-semantics change (v2: CRC covers the header's
/// type + length fields, not just the payload).
constexpr std::uint32_t kProtocolVersion = 2;
/// Sanity bound on payload size: a length field past this is treated as
/// stream corruption, not an allocation request.
constexpr std::uint32_t kMaxPayload = 64u << 20;

/// IEEE CRC-32 (the zlib polynomial) over \p size bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// The CRC a frame of \p type carrying \p payload puts in its header:
/// CRC-32 over `type u8 | payload_len u32 (LE) | payload`.
std::uint32_t frame_crc(FrameType type, const std::uint8_t* payload, std::size_t size);

struct Frame {
  FrameType type = FrameType::Heartbeat;
  std::vector<std::uint8_t> payload;

  std::string payload_str() const {
    return std::string(payload.begin(), payload.end());
  }
};

/// Serialize one frame — exactly the bytes `write_frame` puts on the
/// wire. Exposed separately so the fault injector can corrupt or
/// truncate the encoded bytes before sending them.
std::vector<std::uint8_t> encode_frame(FrameType type, const std::uint8_t* payload,
                                       std::size_t size);
std::vector<std::uint8_t> encode_frame(FrameType type, const std::string& payload);

/// Write all of \p size bytes to \p fd. Retries EINTR and short writes,
/// polls on EAGAIN (nonblocking fds), and suppresses SIGPIPE on sockets
/// (MSG_NOSIGNAL), so a dead peer surfaces as `false`, not a signal.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

/// encode_frame + write_all.
bool write_frame(int fd, FrameType type, const std::string& payload);

/// Incremental frame decoder for one receive direction.
class FrameReader {
 public:
  /// \p max_payload bounds the payload this reader accepts: a header
  /// announcing more is corruption, detected before any of the payload
  /// is awaited. Readers facing unauthenticated peers pass a small bound.
  explicit FrameReader(std::uint32_t max_payload = kMaxPayload)
      : max_payload_(max_payload) {}

  enum class Status {
    Frame,     ///< a complete, CRC-valid frame was produced
    NeedMore,  ///< no complete frame buffered yet
    Eof,       ///< peer closed the stream
    Corrupt,   ///< bad magic, length past the bound, or CRC mismatch
  };

  /// One read(2) from \p fd into the buffer. Returns Eof on stream end,
  /// NeedMore otherwise (including EAGAIN on nonblocking fds).
  Status pump(int fd);

  /// Try to decode the next buffered frame. Returns Frame (and fills
  /// \p out), NeedMore, or Corrupt. After Corrupt the stream is
  /// poisoned: resynchronizing inside a byte stream is guesswork, so the
  /// reader stays in the Corrupt state and the connection must be
  /// dropped.
  Status next(Frame* out);

  bool corrupt() const { return corrupt_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  std::uint32_t max_payload_;
  bool corrupt_ = false;
};

/// Blocking convenience for workers: pump until a full frame, EOF, or
/// corruption.
FrameReader::Status read_frame(int fd, FrameReader& reader, Frame* out);

}  // namespace tbi::wire
