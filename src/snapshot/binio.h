// Little byte-buffer codec for the snapshot tier and the shard wire
// protocol: append-only writer, bounds-checked reader.
//
// The format is deliberately dumb — fixed-width host-endian integers
// and length-prefixed strings, no varints, no alignment tricks — because
// every consumer is this repository on machines of one byte order
// (snapshot records are a cache tier, not an interchange format, and
// packs, the remote-store wire and the shard wire all refuse a
// foreign-endian peer by its byte-order marker). What matters is that a
// truncated or corrupted buffer NEVER crashes the reader: every Get*
// checks the remaining size first and latches a failure flag, so
// callers can decode an entire structure optimistically and test ok()
// once at the end (reads after a failure return zero values).
#ifndef OODBSEC_SNAPSHOT_BINIO_H_
#define OODBSEC_SNAPSHOT_BINIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace oodbsec::snapshot {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof v); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof v); }
  void PutI32(int32_t v) { PutFixed(&v, sizeof v); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buffer_.append(s);
  }
  // Raw bytes, no length prefix (fixed-size fields like magic strings).
  void PutFixedString(std::string_view s) { buffer_.append(s); }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  void PutFixed(const void* v, size_t n) {
    // Host byte order: a record or peer of the other byte order is
    // refused by its byte-order marker before anything is decoded.
    buffer_.append(reinterpret_cast<const char*>(v), n);
  }

  std::string buffer_;
};

// The byte-swapped spelling of a u32: how a byte-order marker written
// on a machine of the opposite endianness reads back, which is what
// lets the decoders name a foreign-endian record instead of calling it
// corrupt.
inline constexpr uint32_t Bswap32(uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) |
         (v << 24);
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  int32_t GetI32() {
    int32_t v = 0;
    GetFixed(&v, sizeof v);
    return v;
  }
  std::string GetString() {
    uint32_t n = GetU32();
    if (n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  size_t remaining() const { return data_.size() - pos_; }
  // True while every read so far stayed in bounds.
  bool ok() const { return !failed_; }
  // True when the buffer was consumed exactly.
  bool exhausted() const { return ok() && remaining() == 0; }

 private:
  void GetFixed(void* v, size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return;
    }
    std::memcpy(v, data_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// FNV-1a 64-bit: the checksum of snapshot payloads, the schema
// fingerprint accumulator, and the shard partitioner's signature hash.
// Stable across processes and runs by construction (no seeding).
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t hash = seed;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- stream-hardened fd I/O ------------------------------------------
//
// The ByteReader above decodes a buffer that is already complete; these
// helpers are how a complete buffer gets off a pipe or socket in the
// first place. Stream fds deliver *short* reads and writes routinely —
// a socket hands back whatever one TCP segment carried, a signal
// interrupts a pipe read with EINTR mid-transfer — so every network or
// pipe consumer must loop. These loops are for blocking fds (the
// dribbling-pipe tests in net_test exercise them); the shard and
// remote-store frames use the deadline-bounded variants of
// net/socket.h.

// Reads exactly `n` bytes, retrying short reads and EINTR. False on
// EOF-before-n or a real error (errno preserved from the failing call).
bool ReadFull(int fd, void* buf, size_t n);

// Writes exactly `n` bytes, retrying short writes and EINTR. False on a
// real error (errno preserved).
bool WriteFull(int fd, const void* buf, size_t n);
inline bool WriteFull(int fd, std::string_view data) {
  return WriteFull(fd, data.data(), data.size());
}

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_BINIO_H_
