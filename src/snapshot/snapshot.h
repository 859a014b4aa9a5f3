// Persistent closure snapshots: the identity shared by every store
// under core::ClosureCache.
//
// The paper's A(R) pipeline is deterministic end to end — unfolding a
// root list depends only on the schema, and the F(F) fixpoint depends
// only on the unfold and the ClosureOptions — so a closure's entire
// identity is (schema, options, root list). That makes the derivation
// log a perfect persistence format: a restarted process rebuilds the
// unfold (cheap), replays the saved log (core::Closure's ReplayView
// constructor), and lands on a closure byte-identical to the one that
// was saved, without re-running the fixpoint. This is what turns a
// nightly-audit restart from a cold population-wide fixpoint into
// record reads.
//
// There is one record format, v3 (packed_store.h: EncodePackedRecord /
// DecodePackedRecord). Packs store it per entry and the remote-store
// wire ships it verbatim. Every record starts with the same 32-byte
// header, all integers host-endian:
//
//   "OODBSNAP" | record version u32 | byte-order marker u32
//   | schema fingerprint u64 | payload checksum u64 (FNV-1a)
//
// Records are machine-local: the replay path aliases raw structs out of
// the record, so a record (or pack, or wire peer) of the opposite byte
// order is refused, never swapped.
//
// Invalidation is fail-safe, never fail-wrong. A decode refuses (and
// the caller falls back to a cold build) when ANY of these trips:
//   * magic/version mismatch — format evolved;
//   * byte-order marker mismatch — a foreign-endian record, or a marker
//     that is neither spelling (corruption);
//   * schema fingerprint mismatch — any class, attribute, function
//     body, constraint, or closure option changed since the save;
//   * checksum mismatch or truncation — torn/corrupted record;
//   * structural validation — every id must be a valid occurrence of
//     the re-unfolded root list, every premise must reference an
//     earlier step;
//   * digest mismatch — the replayed closure must reproduce the saved
//     fact set exactly (defence in depth: this catches rule-semantics
//     drift the fingerprint cannot see, e.g. a rewritten closure.cc).
//
// Rule labels are interned into a process-lifetime pool on decode, so a
// snapshot-loaded closure satisfies Closure's "rule strings outlive
// everything" contract and can itself serve as a warm-start base.
#ifndef OODBSEC_SNAPSHOT_SNAPSHOT_H_
#define OODBSEC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/closure.h"
#include "schema/schema.h"

namespace oodbsec::snapshot {

inline constexpr std::string_view kMagic = "OODBSNAP";

// Written host-endian after the record version; reads back as
// 0x04030201 on a machine of the opposite endianness, which is how a
// foreign record is told apart from a corrupt one. The value is
// asymmetric under byte swap on purpose.
inline constexpr uint32_t kByteOrderMark = 0x01020304;

// The capability-signature key a snapshot of `roots` is stored under:
// FNV-1a over (options bits, root list) — the packed store's on-disk
// index key. Collisions are tolerated: every record carries its root
// list, and stores re-check it against the request.
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

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_SNAPSHOT_H_
