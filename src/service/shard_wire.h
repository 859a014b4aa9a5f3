// The report/stats wire codec of the shard protocol.
//
// The kReports and kStats frames of service/tcp_shard.cc carry
// analysis reports tagged with their global input index, and
// ServiceStats totals. The byte-identity contract — sharded ==
// single-process CheckBatch — is easiest to keep honest when exactly
// one code path produces and parses those bytes: the worker loop and
// the coordinator both call these helpers.
//
// Layout (snapshot/binio primitives, host-endian like the rest of the
// repository's wires):
//
//   report  u32 global_index, u8 satisfied, i32 node_count,
//           u64 fact_count, u32 flaw_count, then per flaw
//             i32 site_id, u8 is_root_site, string description,
//             u32 fact_ids, i32 each, string derivation
//   stats   6 x u64: closures_built, signature_hits, requirement_hits,
//           checks, warm_starts, snapshot_hits
//
// The requirement itself never crosses the wire inside a report — the
// coordinator re-attaches requirements[global_index] after decode,
// which is what makes the merged report bytes identical to CheckBatch's
// (the worker checked the same requirement text).
#ifndef OODBSEC_SERVICE_SHARD_WIRE_H_
#define OODBSEC_SERVICE_SHARD_WIRE_H_

#include <cstdint>

#include "core/analyzer.h"
#include "service/analysis_service.h"
#include "snapshot/binio.h"

namespace oodbsec::service::wire {

void PutStats(snapshot::ByteWriter& w, const ServiceStats& stats);
ServiceStats GetStats(snapshot::ByteReader& r);

// Serializes one report under its global input index. The report's
// `requirement` field is intentionally not written (see header note).
void PutReport(snapshot::ByteWriter& w, uint32_t global_index,
               const core::AnalysisReport& report);

// Decodes one report; `report->requirement` is left default — the
// caller re-attaches the original. Returns false (and leaves outputs
// unspecified) when the stream is short or malformed.
bool GetReport(snapshot::ByteReader& r, uint32_t* global_index,
               core::AnalysisReport* report);

}  // namespace oodbsec::service::wire

#endif  // OODBSEC_SERVICE_SHARD_WIRE_H_
