#include "common/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace tbi::wire {
namespace {

using Status = FrameReader::Status;

class SocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void close_writer() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  void close_reader() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }
  int reader() const { return fds_[0]; }
  int writer() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST(WireCrc32, MatchesKnownVector) {
  // The canonical zlib check value: crc32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
}

TEST_F(SocketPair, RoundTripsFramesInOrder) {
  ASSERT_TRUE(write_frame(writer(), FrameType::JobConfig, "{\"kernel\":\"x\"}"));
  ASSERT_TRUE(write_frame(writer(), FrameType::Assign, "42"));
  ASSERT_TRUE(write_frame(writer(), FrameType::Heartbeat, ""));

  FrameReader r;
  Frame f;
  ASSERT_EQ(read_frame(reader(), r, &f), Status::Frame);
  EXPECT_EQ(f.type, FrameType::JobConfig);
  EXPECT_EQ(f.payload_str(), "{\"kernel\":\"x\"}");
  ASSERT_EQ(read_frame(reader(), r, &f), Status::Frame);
  EXPECT_EQ(f.type, FrameType::Assign);
  EXPECT_EQ(f.payload_str(), "42");
  ASSERT_EQ(read_frame(reader(), r, &f), Status::Frame);
  EXPECT_EQ(f.type, FrameType::Heartbeat);
  EXPECT_TRUE(f.payload.empty());
}

TEST_F(SocketPair, DecodesFramesSplitAcrossArbitraryWrites) {
  // Stream two frames byte by byte: the incremental reader must never
  // depend on message boundaries surviving the transport.
  const auto a = encode_frame(FrameType::Record, std::string("payload-one"));
  const auto b = encode_frame(FrameType::Done, std::string(""));
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameReader r;
  Frame f;
  int frames = 0;
  for (const std::uint8_t byte : stream) {
    ASSERT_EQ(::write(writer(), &byte, 1), 1);
    ASSERT_EQ(r.pump(reader()), Status::NeedMore);
    Status st;
    while ((st = r.next(&f)) == Status::Frame) {
      ++frames;
      if (frames == 1) {
        EXPECT_EQ(f.type, FrameType::Record);
        EXPECT_EQ(f.payload_str(), "payload-one");
      }
    }
    ASSERT_EQ(st, Status::NeedMore);
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(f.type, FrameType::Done);
}

TEST_F(SocketPair, RejectsCorruptedPayload) {
  auto bytes = encode_frame(FrameType::Record, std::string("{\"cell\":1}"));
  bytes[kHeaderBytes + 2] ^= 0xFF;  // flip a payload byte, CRC now stale
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size()));

  FrameReader r;
  Frame f;
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Corrupt);
  EXPECT_TRUE(r.corrupt());
  // The corrupt state is sticky: the stream cannot be resynchronized.
  EXPECT_EQ(r.next(&f), Status::Corrupt);
}

TEST_F(SocketPair, RejectsBadMagic) {
  auto bytes = encode_frame(FrameType::Record, std::string("x"));
  bytes[0] ^= 0x01;
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size()));

  FrameReader r;
  Frame f;
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Corrupt);
}

TEST_F(SocketPair, RejectsOversizeLength) {
  auto bytes = encode_frame(FrameType::Record, std::string("x"));
  // Patch the length field (bytes 5..8, LE) past kMaxPayload.
  const std::uint32_t huge = kMaxPayload + 1;
  bytes[5] = static_cast<std::uint8_t>(huge);
  bytes[6] = static_cast<std::uint8_t>(huge >> 8);
  bytes[7] = static_cast<std::uint8_t>(huge >> 16);
  bytes[8] = static_cast<std::uint8_t>(huge >> 24);
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size()));

  FrameReader r;
  Frame f;
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Corrupt);
}

TEST_F(SocketPair, PerReaderBoundRejectsLongerPayloads) {
  // A reader's own bound replaces kMaxPayload: a payload at the bound
  // decodes, one byte more is corruption, flagged from the header alone.
  const auto at_bound = encode_frame(FrameType::Hello, std::string(16, 'a'));
  ASSERT_TRUE(write_all(writer(), at_bound.data(), at_bound.size()));
  FrameReader r(16);
  Frame f;
  ASSERT_EQ(read_frame(reader(), r, &f), Status::Frame);
  EXPECT_EQ(f.payload.size(), 16u);

  const auto over = encode_frame(FrameType::Hello, std::string(17, 'a'));
  ASSERT_TRUE(write_all(writer(), over.data(), kHeaderBytes));
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Corrupt);
  EXPECT_TRUE(r.corrupt());
}

TEST_F(SocketPair, TruncatedFrameSurfacesAsEof) {
  const auto bytes = encode_frame(FrameType::Record, std::string("truncate-me"));
  // A worker that dies mid-write leaves half a frame; the reader must
  // report EOF, never a phantom frame.
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size() / 2));
  close_writer();

  FrameReader r;
  Frame f;
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Eof);
}

TEST_F(SocketPair, DrainsCompleteFrameArrivingWithEof) {
  const auto bytes = encode_frame(FrameType::Record, std::string("last-words"));
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size()));
  close_writer();

  FrameReader r;
  Frame f;
  ASSERT_EQ(read_frame(reader(), r, &f), Status::Frame);
  EXPECT_EQ(f.payload_str(), "last-words");
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Eof);
}

TEST_F(SocketPair, CrcCoversTheTypeField) {
  // Protocol v2: the CRC spans type + length + payload. Flipping the
  // type byte leaves the payload CRC-clean, so only header coverage
  // catches it — v1 would have happily delivered a Record as a Done.
  auto bytes = encode_frame(FrameType::Record, std::string("{\"cell\":1}"));
  bytes[4] ^= 0x10;
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size()));

  FrameReader r;
  Frame f;
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Corrupt);
  EXPECT_TRUE(r.corrupt());
}

TEST_F(SocketPair, CrcCoversTheLengthField) {
  // Shrink the length field by one: the truncated "payload" is still a
  // plausible frame shape, so only the CRC over the length can reject it.
  auto bytes = encode_frame(FrameType::Record, std::string("abc"));
  bytes[5] = 2;
  ASSERT_TRUE(write_all(writer(), bytes.data(), bytes.size()));

  FrameReader r;
  Frame f;
  EXPECT_EQ(read_frame(reader(), r, &f), Status::Corrupt);
}

TEST_F(SocketPair, WriteToClosedPeerFailsInsteadOfSignaling) {
  close_reader();
  // Without MSG_NOSIGNAL this would raise SIGPIPE and kill the test.
  const auto bytes = encode_frame(FrameType::Heartbeat, std::string(""));
  bool ok = true;
  for (int i = 0; i < 64 && ok; ++i) {
    ok = write_all(writer(), bytes.data(), bytes.size());
  }
  EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------------------
// Fuzz: the reader must be byte-boundary-agnostic and corruption-tight.
// Deterministic seeds — these are regression tests, not a CI lottery.
// ---------------------------------------------------------------------------

std::vector<std::string> random_payloads(std::mt19937& rng, int count,
                                         std::size_t max_len) {
  std::vector<std::string> payloads;
  for (int i = 0; i < count; ++i) {
    std::string p(rng() % (max_len + 1), '\0');
    for (auto& c : p) c = static_cast<char>(rng() & 0xFF);
    payloads.push_back(std::move(p));
  }
  return payloads;
}

std::vector<std::uint8_t> encode_stream(const std::vector<std::string>& payloads) {
  std::vector<std::uint8_t> all;
  for (const auto& p : payloads) {
    const auto e = encode_frame(FrameType::Record, p);
    all.insert(all.end(), e.begin(), e.end());
  }
  return all;
}

TEST_F(SocketPair, FuzzRandomSlicedWritesDecodeEveryFrameExactly) {
  // EINTR/short-read hardening: ship 32 frames in random 1..7-byte
  // slices, pumping between slices so the reader sees every boundary.
  std::mt19937 rng(0x5EED0001);
  const auto payloads = random_payloads(rng, 32, 200);
  const auto all = encode_stream(payloads);

  FrameReader r;
  Frame f;
  std::size_t off = 0;
  std::size_t got = 0;
  while (off < all.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 7, all.size() - off);
    ASSERT_TRUE(write_all(writer(), all.data() + off, n));
    off += n;
    ASSERT_NE(r.pump(reader()), Status::Eof);
    Status st;
    while ((st = r.next(&f)) == Status::Frame) {
      ASSERT_LT(got, payloads.size());
      ASSERT_EQ(f.payload_str(), payloads[got]);
      ++got;
    }
    ASSERT_EQ(st, Status::NeedMore);
  }
  close_writer();
  Status st;
  while ((st = read_frame(reader(), r, &f)) == Status::Frame) {
    ASSERT_LT(got, payloads.size());
    ASSERT_EQ(f.payload_str(), payloads[got]);
    ++got;
  }
  EXPECT_EQ(st, Status::Eof);
  EXPECT_EQ(got, payloads.size());
}

TEST(WireFuzz, SingleBitCorruptionNeverYieldsAPhantomFrame) {
  // Flip one random bit anywhere in an 8-frame stream (header, CRC or
  // payload — every byte is covered) and deliver it in random slices.
  // The decoded frames must be the exact clean prefix before the flipped
  // frame; the stream must then end Corrupt (sticky) or Eof, never a
  // wrong or extra frame.
  std::mt19937 rng(0x5EED0002);
  for (int trial = 0; trial < 40; ++trial) {
    const auto payloads = random_payloads(rng, 8, 60);
    auto all = encode_stream(payloads);

    // Locate which frame the flipped byte belongs to.
    const std::size_t flip_at = rng() % all.size();
    all[flip_at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    std::size_t clean_prefix = 0;
    for (std::size_t pos = 0; clean_prefix < payloads.size(); ++clean_prefix) {
      const std::size_t frame_end =
          pos + kHeaderBytes + payloads[clean_prefix].size();
      if (flip_at < frame_end) break;
      pos = frame_end;
    }

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::size_t off = 0;
    while (off < all.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 7, all.size() - off);
      ASSERT_TRUE(write_all(fds[1], all.data() + off, n));
      off += n;
    }
    ::close(fds[1]);

    FrameReader r;
    Frame f;
    Status st;
    std::size_t got = 0;
    while ((st = read_frame(fds[0], r, &f)) == Status::Frame) {
      ASSERT_LT(got, clean_prefix) << "trial " << trial << ": frame decoded "
                                   << "past the corrupted byte";
      ASSERT_EQ(f.payload_str(), payloads[got]) << "trial " << trial;
      ++got;
    }
    EXPECT_EQ(got, clean_prefix) << "trial " << trial;
    EXPECT_TRUE(st == Status::Corrupt || st == Status::Eof) << "trial " << trial;
    if (st == Status::Corrupt) {
      // Sticky: a poisoned stream can never produce another frame.
      EXPECT_EQ(r.next(&f), Status::Corrupt);
    }
    ::close(fds[0]);
  }
}

}  // namespace
}  // namespace tbi::wire
