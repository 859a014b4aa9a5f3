#include "snapshot/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "lang/printer.h"
#include "obs/trace.h"
#include "snapshot/binio.h"
#include "unfold/unfolded.h"

namespace oodbsec::snapshot {

namespace {

// Fixed header: magic, format version, byte-order marker, schema
// fingerprint, payload checksum. Everything after byte kHeaderSize is
// the checksummed payload.
constexpr size_t kHeaderSize =
    8 + 2 * sizeof(uint32_t) + 2 * sizeof(uint64_t);

std::string OptionBits(const core::ClosureOptions& o) {
  std::string bits;
  bits.push_back(o.same_type_argument_equality ? '1' : '0');
  bits.push_back(o.pi_join_to_ti ? '1' : '0');
  bits.push_back(o.basic_function_rules ? '1' : '0');
  bits.push_back(o.write_read_equality ? '1' : '0');
  bits.push_back(o.read_object_total_alterability ? '1' : '0');
  return bits;
}

common::Status Invalid(std::string_view path, std::string_view what) {
  return common::FailedPreconditionError(
      common::StrCat("snapshot ", path, ": ", what));
}

}  // namespace

std::string_view InternRuleLabel(std::string_view label) {
  static std::mutex mu;
  // Leaked deliberately: interned labels back string_views inside
  // closures that may outlive any scope we could tie the pool to.
  // unordered_set gives stable element references across rehash.
  static auto* pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return *pool->emplace(label).first;
}

uint64_t SchemaFingerprint(const schema::Schema& schema,
                           const core::ClosureOptions& options) {
  // Every field is hashed with a separator so concatenations can't
  // collide ("ab"+"c" vs "a"+"bc").
  auto mix = [](uint64_t* hash, std::string_view piece) {
    *hash = Fnv1a64(piece, *hash);
    *hash = Fnv1a64(std::string_view("\x1f", 1), *hash);
  };
  // FNV-1a is a stream hash, so the state after the schema fields is
  // all the option bits need: it is computed once per Schema (printing
  // every function body is the expensive part) and the options are
  // mixed in per call. The value equals hashing the whole stream.
  uint64_t hash = schema.MemoizedDigest([&schema, &mix] {
    uint64_t state = Fnv1a64("oodbsec-snapshot-schema");
    for (const auto& cls : schema.classes()) {
      mix(&state, "class");
      mix(&state, cls->name());
      for (const schema::AttributeDef& attr : cls->attributes()) {
        mix(&state, attr.name);
        mix(&state, attr.type->ToString());
      }
    }
    for (const auto& fn : schema.functions()) {
      mix(&state, "function");
      mix(&state, fn->SignatureToString());
      mix(&state, lang::PrintExpr(fn->body()));
    }
    for (const schema::FunctionDecl* constraint : schema.constraints()) {
      mix(&state, "constraint");
      mix(&state, constraint->name());
    }
    return state;
  });
  mix(&hash, "options");
  mix(&hash, OptionBits(options));
  return hash;
}

uint64_t SnapshotKeyHash(const core::ClosureOptions& options,
                         const std::vector<std::string>& roots) {
  uint64_t hash = Fnv1a64(OptionBits(options));
  for (const std::string& root : roots) {
    hash = Fnv1a64("|", hash);
    hash = Fnv1a64(root, hash);
  }
  return hash;
}

std::string SnapshotFileName(const core::ClosureOptions& options,
                             const std::vector<std::string>& roots) {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.snap",
                static_cast<unsigned long long>(SnapshotKeyHash(options,
                                                                roots)));
  return name;
}

std::string EncodeSnapshot(const schema::Schema& schema,
                           const core::ClosureOptions& options,
                           const core::CachedAnalysis& entry) {
  if (entry.closure == nullptr || entry.set == nullptr) return {};

  ByteWriter payload;
  payload.PutU32(static_cast<uint32_t>(entry.roots.size()));
  for (const std::string& root : entry.roots) payload.PutString(root);
  payload.PutString(entry.closure->FactSetDigest());

  // Rule labels are deduplicated into a table; steps reference it by
  // index (the label set is small — one entry per rule, not per fact).
  const std::vector<core::DerivationStep>& steps = entry.closure->steps();
  std::vector<std::string_view> rules;
  std::unordered_map<std::string_view, uint32_t> rule_index;
  for (const core::DerivationStep& step : steps) {
    if (rule_index.emplace(step.rule, rules.size()).second) {
      rules.push_back(step.rule);
    }
  }
  payload.PutU32(static_cast<uint32_t>(rules.size()));
  for (std::string_view rule : rules) payload.PutString(rule);

  payload.PutU32(static_cast<uint32_t>(steps.size()));
  for (const core::DerivationStep& step : steps) {
    payload.PutU8(static_cast<uint8_t>(step.fact.kind));
    payload.PutI32(step.fact.a);
    payload.PutI32(step.fact.b);
    payload.PutI32(step.fact.origin.num);
    payload.PutU8(static_cast<uint8_t>(step.fact.origin.dir));
    payload.PutU32(rule_index.at(step.rule));
    payload.PutU32(step.premise_offset);
    payload.PutU32(step.premise_count);
  }
  // The premise arena is append-only in step order (Closure::Log), so
  // concatenating each step's premises reproduces it exactly and the
  // stored offsets stay valid.
  uint32_t arena_size = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    arena_size += steps[i].premise_count;
  }
  payload.PutU32(arena_size);
  for (size_t i = 0; i < steps.size(); ++i) {
    for (core::FactId premise :
         entry.closure->premises(static_cast<core::FactId>(i))) {
      payload.PutI32(premise);
    }
  }

  ByteWriter file;
  file.PutFixedString(kMagic);
  file.PutU32(kFormatVersion);
  file.PutU32(kByteOrderMark);
  file.PutU64(SchemaFingerprint(schema, options));
  file.PutU64(Fnv1a64(payload.buffer()));
  return file.Release() + payload.buffer();
}

common::Status SaveSnapshot(const schema::Schema& schema,
                            const core::ClosureOptions& options,
                            const core::CachedAnalysis& entry,
                            const std::string& path) {
  std::string bytes = EncodeSnapshot(schema, options, entry);
  if (bytes.empty()) {
    return common::InvalidArgumentError("snapshot: entry has no closure");
  }

  std::error_code ec;
  std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  // Write-to-temp + rename: concurrent shard workers saving the same
  // signature race benignly (both write identical bytes; rename is
  // atomic), and readers never observe a torn file.
  std::string tmp = common::StrCat(path, ".tmp.", ::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
      std::filesystem::remove(tmp, ec);
      return common::InternalError(
          common::StrCat("snapshot: cannot write ", tmp));
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return common::InternalError(
        common::StrCat("snapshot: cannot rename into ", path));
  }
  return common::Status::Ok();
}

common::Result<std::shared_ptr<const core::CachedAnalysis>> DecodeSnapshot(
    const schema::Schema& schema, const core::ClosureOptions& options,
    std::string_view bytes, std::string_view name, obs::Observability* obs) {
  std::string_view data = bytes;
  std::string_view path = name;  // label for diagnostics only

  if (data.size() < kHeaderSize ||
      data.substr(0, kMagic.size()) != kMagic) {
    return Invalid(path, "not a snapshot file");
  }
  ByteReader header(data.substr(kMagic.size(), kHeaderSize - kMagic.size()));
  uint32_t version = header.GetU32();
  uint32_t byte_order = header.GetU32();
  // The marker decides how to read everything else — including the
  // version field already consumed raw above — so it is interpreted
  // first. A swapped marker arms foreign-endian decoding; anything that
  // is neither spelling is corruption, diagnosed as such.
  bool foreign = byte_order == Bswap32(kByteOrderMark);
  if (!foreign && byte_order != kByteOrderMark) {
    return Invalid(path, "corrupt byte-order marker");
  }
  header.set_byte_swap(foreign);
  if (foreign) version = Bswap32(version);
  uint64_t fingerprint = header.GetU64();
  uint64_t checksum = header.GetU64();
  if (version != kFormatVersion) {
    return Invalid(path, common::StrCat("format version ", version,
                                        " (expected ", kFormatVersion, ")"));
  }
  if (fingerprint != SchemaFingerprint(schema, options)) {
    return Invalid(path, "schema fingerprint mismatch (schema or options "
                         "changed since save)");
  }
  // The checksum is FNV over the writer's raw payload bytes — the same
  // bytes we hold, whatever their endianness — so a foreign file only
  // needed its stored checksum field swapped (done by GetU64 above).
  std::string_view payload = std::string_view(data).substr(kHeaderSize);
  if (Fnv1a64(payload) != checksum) {
    return Invalid(path, "payload checksum mismatch (truncated or corrupt)");
  }

  ByteReader reader(payload);
  reader.set_byte_swap(foreign);
  std::vector<std::string> roots;
  uint32_t root_count = reader.GetU32();
  for (uint32_t i = 0; i < root_count && reader.ok(); ++i) {
    roots.push_back(reader.GetString());
  }
  std::string digest = reader.GetString();

  std::vector<std::string_view> rules;
  uint32_t rule_count = reader.GetU32();
  for (uint32_t i = 0; i < rule_count && reader.ok(); ++i) {
    rules.push_back(InternRuleLabel(reader.GetString()));
  }

  core::ReplayLog log;
  uint32_t step_count = reader.GetU32();
  if (reader.ok()) log.steps.reserve(step_count);
  for (uint32_t i = 0; i < step_count && reader.ok(); ++i) {
    core::DerivationStep step;
    uint8_t kind = reader.GetU8();
    step.fact.a = reader.GetI32();
    step.fact.b = reader.GetI32();
    step.fact.origin.num = reader.GetI32();
    step.fact.origin.dir = static_cast<char>(reader.GetU8());
    uint32_t rule = reader.GetU32();
    step.premise_offset = reader.GetU32();
    step.premise_count = reader.GetU32();
    if (!reader.ok()) break;
    if (kind > static_cast<uint8_t>(core::Fact::Kind::kEq)) {
      return Invalid(path, "invalid fact kind");
    }
    step.fact.kind = static_cast<core::Fact::Kind>(kind);
    if (rule >= rules.size()) {
      return Invalid(path, "rule index out of range");
    }
    step.rule = rules[rule];
    log.steps.push_back(step);
  }
  uint32_t arena_count = reader.GetU32();
  if (reader.ok()) log.premise_arena.reserve(arena_count);
  for (uint32_t i = 0; i < arena_count && reader.ok(); ++i) {
    log.premise_arena.push_back(reader.GetI32());
  }
  if (!reader.exhausted()) {
    return Invalid(path, "truncated payload or trailing bytes");
  }

  // Re-unfold the stored root list; a root the schema no longer resolves
  // means the snapshot is stale (the fingerprint covers declared
  // functions, but be defensive anyway).
  auto set_or = unfold::UnfoldedSet::Build(schema, roots, obs);
  if (!set_or.ok()) {
    return Invalid(path, common::StrCat("stale root list: ",
                                        set_or.status().message()));
  }
  std::unique_ptr<unfold::UnfoldedSet> set = std::move(set_or).value();

  // Structural validation: every id must be an occurrence of this
  // unfold, every premise must reference an earlier step. After this
  // the ReplayLog constructor's precondition holds and replay is safe.
  const int n = set->node_count();
  auto valid_id = [n](int id) { return id >= 1 && id <= n; };
  for (size_t i = 0; i < log.steps.size(); ++i) {
    const core::DerivationStep& step = log.steps[i];
    const core::Fact& fact = step.fact;
    if (!valid_id(fact.a)) return Invalid(path, "occurrence id out of range");
    if ((fact.kind == core::Fact::Kind::kPiStar ||
         fact.kind == core::Fact::Kind::kEq) &&
        !valid_id(fact.b)) {
      return Invalid(path, "occurrence id out of range");
    }
    if (fact.origin.num < 0 || fact.origin.num > n) {
      return Invalid(path, "origin occurrence out of range");
    }
    if (fact.origin.dir != '+' && fact.origin.dir != '-') {
      return Invalid(path, "invalid origin direction");
    }
    uint64_t premise_end =
        static_cast<uint64_t>(step.premise_offset) + step.premise_count;
    if (premise_end > log.premise_arena.size()) {
      return Invalid(path, "premise range out of arena bounds");
    }
    for (uint32_t p = 0; p < step.premise_count; ++p) {
      core::FactId premise = log.premise_arena[step.premise_offset + p];
      if (premise < 0 || static_cast<size_t>(premise) >= i) {
        return Invalid(path, "premise references a later step");
      }
    }
  }

  auto entry = std::make_shared<core::CachedAnalysis>();
  entry->roots = roots;
  entry->sorted_roots = std::move(roots);
  std::sort(entry->sorted_roots.begin(), entry->sorted_roots.end());
  entry->sorted_roots.erase(
      std::unique(entry->sorted_roots.begin(), entry->sorted_roots.end()),
      entry->sorted_roots.end());
  entry->closure = std::make_unique<core::Closure>(*set, options, obs, log);
  entry->set = std::move(set);

  // Defence in depth: the replayed closure must reproduce the saved
  // fact set bit for bit. A mismatch means the inference rules changed
  // without a format-version bump — refuse rather than serve stale
  // capabilities.
  if (entry->closure->FactSetDigest() != digest) {
    return Invalid(path, "fact-set digest mismatch (stale derivation log)");
  }
  if (obs != nullptr) {
    obs->metrics.counter("snapshot.load.facts")
        ->Increment(entry->closure->fact_count());
  }
  return std::shared_ptr<const core::CachedAnalysis>(std::move(entry));
}

common::Result<std::shared_ptr<const core::CachedAnalysis>> LoadSnapshot(
    const schema::Schema& schema, const core::ClosureOptions& options,
    const std::string& path, obs::Observability* obs) {
  obs::ScopedSpan span(obs != nullptr ? &obs->tracer : nullptr,
                       "snapshot.load");

  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return common::NotFoundError(
          common::StrCat("snapshot ", path, ": no such file"));
    }
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return DecodeSnapshot(schema, options, data, path, obs);
}

}  // namespace oodbsec::snapshot
