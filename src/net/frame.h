// Length-prefixed binio frames: the unit of the shard and snapshot-store
// wire protocols.
//
// A frame is a fixed 20-byte header followed by a binio payload:
//
//   u32 magic "ONF1" | u8 type | u8 pad[3] | u32 payload length
//   | u64 payload checksum (FNV-1a)
//
// Integers are host-endian, like every other wire the repository owns
// (the snapshot header): a connection between machines of different
// endianness is *detected* at the hello handshake (each side sends
// snapshot::kByteOrderMark) and refused with a specific diagnosis
// rather than mis-decoded. That covers the store frames too:
// they carry v3 packed snapshot records (snapshot/packed_store.h),
// which are machine-local like the packs they come from.
//
// Robustness contract (the torn-frame / garbage-prefix tests in
// net_test pin this): a reader never trusts a byte it has not
// validated. Bad magic, an oversized length, a checksum mismatch, or
// EOF mid-frame all fail with kFailedPrecondition naming the defect;
// only a clean EOF *between* frames reports kNotFound ("connection
// closed"), which is how a peer's orderly shutdown is told apart from a
// death mid-message.
//
// Writing uses the gather path: header and payload go out in one
// writev from their own buffers (WriteFrame never concatenates), so the
// coordinator streams report-sized payloads straight out of the
// ByteWriter buffers they were serialized into.
#ifndef OODBSEC_NET_FRAME_H_
#define OODBSEC_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace oodbsec::net {

// Protocol version spoken by TcpTransport / ServeShardWorker /
// StoreServer; carried in every hello and bumped on any frame-layout or
// payload-schema change. v2: the store's Found and Save payloads are
// v3 packed records (snapshot/packed_store.h), no longer v2 snapshots.
inline constexpr uint32_t kProtocolVersion = 2;

inline constexpr uint32_t kFrameMagic = 0x314f4e46;  // "FNO1" LE spells ONF1
// Upper bound a reader will allocate for one payload; a length above it
// is diagnosed as garbage, not trusted.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;
inline constexpr size_t kFrameHeaderSize = 4 + 1 + 3 + 4 + 8;

enum class FrameType : uint8_t {
  // Shard protocol (coordinator <-> worker).
  kHello = 1,       // coord -> worker: version, byte order, fingerprint
  kHelloAck = 2,    // worker -> coord: same fields + accept/refuse
  kBatch = 3,       // coord -> worker: one signature-coalesced batch
  kReports = 4,     // worker -> coord: the batch's reports
  kBatchError = 5,  // worker -> coord: earliest failure in the batch
  kDone = 6,        // coord -> worker: no more batches
  kStats = 7,       // worker -> coord: final ServiceStats, then close
  // Snapshot-store protocol (remote store <-> store server).
  kStoreHello = 8,       // client -> server: version, byte order, fingerprint
  kStoreHelloAck = 9,    // server -> client
  kStoreFind = 10,       // client -> server: roots
  kStoreFound = 11,      // server -> client: v3 packed record bytes
  kStoreMiss = 12,       // server -> client: no record for the signature
  kStoreFail = 13,       // server -> client: status code + message
  kStoreSave = 14,       // client -> server: v3 packed record bytes
  kStoreSaveAck = 15,    // server -> client: status code + message
  kStoreStats = 16,      // client -> server
  kStoreStatsReply = 17, // server -> client: StoreStats fields
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

// Renders the 20-byte header for a payload (exposed so a sender that
// owns its own iovec batching — the pipelined coordinator — can gather
// many frames into one writev).
std::string EncodeFrameHeader(FrameType type, std::string_view payload);

// Gather-writes header + payload in one writev (payload bytes are never
// copied into a combined buffer). Blocking or nonblocking fd; the
// poll deadline bounds every stall.
common::Status WriteFrame(int fd, FrameType type, std::string_view payload,
                          int timeout_ms);

// Reads and validates one frame. kNotFound on clean EOF between frames;
// kFailedPrecondition for garbage magic, oversized length, torn frame,
// checksum mismatch, or a stall past `timeout_ms` (the message says
// which).
common::Status ReadFrame(int fd, Frame* frame, int timeout_ms);

// Validates a complete header already in memory and extracts (type,
// length, checksum). Shared by ReadFrame and the coordinator's
// buffer-at-a-time pump. Returns kFailedPrecondition on garbage.
common::Status DecodeFrameHeader(std::string_view header, FrameType* type,
                                 uint32_t* length, uint64_t* checksum);

}  // namespace oodbsec::net

#endif  // OODBSEC_NET_FRAME_H_
