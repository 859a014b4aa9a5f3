#include "snapshot/snapshot.h"

#include <mutex>
#include <unordered_set>

#include "lang/printer.h"
#include "snapshot/binio.h"

namespace oodbsec::snapshot {

namespace {

std::string OptionBits(const core::ClosureOptions& o) {
  std::string bits;
  bits.push_back(o.same_type_argument_equality ? '1' : '0');
  bits.push_back(o.pi_join_to_ti ? '1' : '0');
  bits.push_back(o.basic_function_rules ? '1' : '0');
  bits.push_back(o.write_read_equality ? '1' : '0');
  bits.push_back(o.read_object_total_alterability ? '1' : '0');
  return bits;
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

}  // namespace oodbsec::snapshot
