#include "service/shard.h"

#include <cstdint>

#include "snapshot/binio.h"

namespace oodbsec::service {

int ShardOf(std::string_view signature, int shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<int>(snapshot::Fnv1a64(signature) %
                          static_cast<uint64_t>(shard_count));
}

}  // namespace oodbsec::service
