// PackedStore: the single-file snapshot storage engine (the local
// SnapshotStore).
//
// PackedStore keeps every cached closure in ONE segment file with an
// on-disk index of far pointers (segment offset + length) keyed by the
// capability signature hash (SnapshotKeyHash), following the
// page/far-pointer idiom of Tokyo Cabinet's B-tree pager (see ROADMAP):
// a probe costs an index lookup, not a file open, and retention sweeps
// reclaim stale generations.
//
// File layout (all integers host-endian; a pack never crosses machines
// of different endianness — the mmap replay path aliases raw structs,
// so a foreign pack is refused):
//
//   header   "OODBPACK" | pack version u32 | byte-order marker u32
//            | reserved u64 x2                               (32 bytes)
//   records  at 8-aligned offsets, each:
//              key u64 | entry length u64 | entry | zero pad to 8
//   footer   index: per live record
//              key u64 | offset u64 | length u64
//              | fingerprint u64 | checksum u64              (40 bytes)
//            sorted by key, then trailer:
//              index offset u64 | entry count u64
//              | index checksum u64 (FNV-1a) | "OODBPIDX"    (32 bytes)
//
// Each entry is a v3 snapshot record: the 32-byte record header of
// snapshot.h ("OODBSNAP" | version 3 | byte-order marker | schema
// fingerprint | FNV-1a payload checksum) followed by a payload laid out
// for in-place replay:
//
//   roots (count + strings) | fact-set digest | rule-label table
//   | step count u32 | arena count u32 | steps offset u32
//   | zero pad to 8 | core::PackedStep[steps] | premise arena i32[]
//
// The step array and premise arena are aliased straight out of the
// mmap'd segment (core::ReplayView) — replay reads facts in place, no
// intermediate buffers. The fail-safe invalidation ladder is the one in
// snapshot.h: magic/version → byte order → fingerprint → checksum →
// structural validation → digest equality.
//
// The v3 record is also the remote-store wire format (remote_store.h):
// FindRecord ships a record's bytes verbatim and the worker runs the
// ladder above with DecodePackedRecord.
//
// Durability: appends go record-first, footer-second, so a torn write
// loses at most the record being appended; Open falls back from an
// invalid trailer to scanning self-delimiting records from the top and
// keeps every record that validates (this covers both a truncated
// segment and a torn index). Retention sweeps compact online: live
// records of the current schema generation are rewritten into a fresh
// segment and swapped in by atomic tmp+rename.
//
// An LRU page cache keyed by signature holds hot decoded closures, so
// repeated Finds of one signature (e.g. the session cache and the
// service cache sharing a store) pay one replay.
//
// One process writes a pack. Sharded audits, forked or over TCP, reach
// it through the coordinator's StoreServer (remote_store.h), so every
// worker save lands in this one segment through that one writer.
#ifndef OODBSEC_SNAPSHOT_PACKED_STORE_H_
#define OODBSEC_SNAPSHOT_PACKED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::snapshot {

inline constexpr std::string_view kPackMagic = "OODBPACK";
inline constexpr std::string_view kPackIndexMagic = "OODBPIDX";
inline constexpr uint32_t kPackVersion = 1;
// The one record format, inside packs and on the remote-store wire:
// the snapshot.h record header over the packed in-place payload.
inline constexpr uint32_t kPackedEntryVersion = 3;

// Serializes `entry` (built under (schema, options)) into one v3
// record: the 32-byte entry header over the packed payload above. The
// bytes a pack stores per entry and a remote store ships. Empty string
// when the entry has no closure.
std::string EncodePackedRecord(const schema::Schema& schema,
                               const core::ClosureOptions& options,
                               const core::CachedAnalysis& entry);

// Validates and replays one v3 record through the full ladder above.
// `bytes` must start 8-aligned, as records do in a pack: the step array
// is aliased in place, and a buffer that misaligns it is refused
// ("misaligned step array"). Heap buffers are aligned. Nothing in the
// returned entry borrows from `bytes`. kFailedPrecondition for every
// invalid record, the message naming the rung that failed; `label`
// prefixes it. The caller compares the returned root list against the
// one it asked for (the index key is a hash). Never crashes on hostile
// bytes.
common::Result<std::shared_ptr<const core::CachedAnalysis>>
DecodePackedRecord(const schema::Schema& schema,
                   const core::ClosureOptions& options, std::string_view bytes,
                   std::string_view label, obs::Observability* obs = nullptr);

// Opens (creating if absent) the packed segment at `path`. Fails when
// the file exists but is not a pack, is a newer pack version, or was
// written on a machine of the opposite endianness. A torn footer or
// truncated tail is NOT an error — recovery keeps every record that
// validates. `page_cache_capacity` bounds the decoded-closure LRU
// (min 1).
common::Result<std::shared_ptr<SnapshotStore>> OpenPackedStore(
    std::string path, size_t page_cache_capacity = 64);

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_PACKED_STORE_H_
