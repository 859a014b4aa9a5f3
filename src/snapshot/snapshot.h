// Persistent closure snapshots: the disk tier under core::ClosureCache.
//
// The paper's A(R) pipeline is deterministic end to end — unfolding a
// root list depends only on the schema, and the F(F) fixpoint depends
// only on the unfold and the ClosureOptions — so a closure's entire
// identity is (schema, options, root list). That makes the derivation
// log a perfect persistence format: a restarted process rebuilds the
// unfold (cheap), replays the saved log through the warm-start path
// (core::Closure's ReplayLog constructor), and lands on a closure
// byte-identical to the one that was saved, without re-running the
// fixpoint. This is what turns a nightly-audit restart from a cold
// population-wide fixpoint into file reads.
//
// File layout (versioned, checksummed; all integers written
// host-endian). The header carries an explicit byte-order marker — a
// u32 written as 0x01020304 by the saver — so a snapshot read on a
// machine of the opposite endianness is *detected*: the loader arms
// ByteReader::set_byte_swap and decodes the file anyway (every
// multi-byte integer, including the header's fingerprint and checksum,
// is byte-swapped on read). A marker that matches neither the native
// nor the swapped spelling means corruption and is refused with a
// specific diagnosis, so a directory of snapshots can be carried to a
// machine of the other byte order.
//
// This v2 codec serves only the directory tier (DirectoryStore). Packs
// and the remote-store wire use the v3 packed record instead
// (packed_store.h: EncodePackedRecord / DecodePackedRecord).
//
//   header   "OODBSNAP" | format version u32 | byte-order marker u32
//            | schema fingerprint u64 | payload checksum u64 (FNV-1a)
//   payload  roots (count + strings, unfold order)
//            | fact-set digest (Closure::FactSetDigest of the saved run)
//            | rule-label table (count + strings)
//            | steps (count; kind u8, a i32, b i32, origin num i32,
//              origin dir u8, rule index u32, premise offset u32,
//              premise count u32)
//            | premise arena (count + i32 ids)
//
// Invalidation is fail-safe, never fail-wrong. A load refuses (and the
// caller falls back to a cold build) when ANY of these trips:
//   * magic/version mismatch — format evolved;
//   * corrupt byte-order marker — neither the native nor the swapped
//     spelling of 0x01020304 (a recognized swapped marker decodes
//     instead, see above);
//   * schema fingerprint mismatch — any class, attribute, function
//     body, constraint, or closure option changed since the save;
//   * checksum mismatch or truncation — torn/corrupted file;
//   * structural validation — every id must be a valid occurrence of
//     the re-unfolded root list, every premise must reference an
//     earlier step;
//   * digest mismatch — the replayed closure must reproduce the saved
//     fact set exactly (defence in depth: this catches rule-semantics
//     drift the fingerprint cannot see, e.g. a rewritten closure.cc).
//
// Rule labels are interned into a process-lifetime pool on load, so a
// snapshot-loaded closure satisfies Closure's "rule strings outlive
// everything" contract and can itself serve as a warm-start base.
#ifndef OODBSEC_SNAPSHOT_SNAPSHOT_H_
#define OODBSEC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "obs/obs.h"
#include "schema/schema.h"

namespace oodbsec::snapshot {

// Bump on any change to the header or payload layout above.
// v2: byte-order marker inserted after the format version.
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr std::string_view kMagic = "OODBSNAP";

// Written host-endian after the version; reads back as 0x04030201 on a
// machine of the opposite endianness, which arms byte-swapped decoding
// in LoadSnapshot. The value is asymmetric under byte swap on purpose.
inline constexpr uint32_t kByteOrderMark = 0x01020304;

// The capability-signature key a snapshot of `roots` is stored under:
// FNV-1a over (options bits, root list). This is the identity shared by
// the directory tier (hex file names, SnapshotFileName) and the packed
// store's on-disk index. Collisions are tolerated — both tiers store
// the root list and re-check it against the request.
uint64_t SnapshotKeyHash(const core::ClosureOptions& options,
                         const std::vector<std::string>& roots);

// Copies `label` into a never-freed process-wide pool and returns a
// view with effectively static storage. Idempotent; thread-safe. The
// pool is bounded by the set of distinct rule labels in the system
// (a few dozen), so "never freed" is a contract, not a leak.
std::string_view InternRuleLabel(std::string_view label);

// Order-sensitive FNV-1a fingerprint of everything that determines a
// closure besides the root list: every class (name, attributes, types),
// every function (signature + printed body), the constraint list, and
// the ClosureOptions bits. Two processes over the same workspace text
// compute the same fingerprint; any semantic edit changes it. The
// schema part is hashed once per Schema (Schema::MemoizedDigest) and
// each call mixes in only the option bits; thread-safe.
uint64_t SchemaFingerprint(const schema::Schema& schema,
                           const core::ClosureOptions& options);

// The file name (no directory) a snapshot of `roots` lives under:
// 16 hex digits of the hash of (options bits, root list), ".snap".
// Name collisions are tolerated — LoadSnapshot returns the stored root
// list, and the cache re-checks it against the request.
std::string SnapshotFileName(const core::ClosureOptions& options,
                             const std::vector<std::string>& roots);

// Serializes `entry` (roots + digest + derivation log) into the full
// snapshot byte string — header and checksummed payload, exactly the
// bytes SaveSnapshot writes to disk. The byte-level half of the
// directory tier's codec. Empty string when the entry has no closure.
std::string EncodeSnapshot(const schema::Schema& schema,
                           const core::ClosureOptions& options,
                           const core::CachedAnalysis& entry);

// Validates, re-unfolds, and replays snapshot bytes (the inverse of
// EncodeSnapshot; the decode half of LoadSnapshot). `name` labels
// diagnostics (a path for file loads).
// Same error contract as LoadSnapshot, minus the file read.
common::Result<std::shared_ptr<const core::CachedAnalysis>> DecodeSnapshot(
    const schema::Schema& schema, const core::ClosureOptions& options,
    std::string_view bytes, std::string_view name,
    obs::Observability* obs = nullptr);

// Serializes `entry` (roots + digest + derivation log) to `path`,
// atomically (temp file + rename), creating parent directories as
// needed. `options` must be the options the closure was built under.
common::Status SaveSnapshot(const schema::Schema& schema,
                            const core::ClosureOptions& options,
                            const core::CachedAnalysis& entry,
                            const std::string& path);

// Loads, validates, re-unfolds, and replays a snapshot. Returns
// kNotFound when the file does not exist, kFailedPrecondition for every
// flavour of invalid (wrong version, wrong fingerprint, checksum,
// truncation, structural or digest mismatch — the message says which).
// Never crashes on hostile bytes. `obs` (optional) observes the unfold
// and replay spans, plus "snapshot.load.*" counters.
common::Result<std::shared_ptr<const core::CachedAnalysis>> LoadSnapshot(
    const schema::Schema& schema, const core::ClosureOptions& options,
    const std::string& path, obs::Observability* obs = nullptr);

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_SNAPSHOT_H_
