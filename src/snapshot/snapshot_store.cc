#include "snapshot/snapshot_store.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <utility>

#include "common/strings.h"
#include "snapshot/binio.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot.h"

namespace oodbsec::snapshot {

namespace {

// Parses the fixed 32-byte header of one snapshot file. Returns false
// when the file is unreadable or not a snapshot; a foreign-endian
// header is decoded (the store must recognize its own records whatever
// machine wrote them).
bool ReadSnapshotHeader(const std::string& path, uint64_t* fingerprint_out,
                        uint64_t* size_out) {
  std::ifstream in(path, std::ios::binary);
  char buf[32];
  if (!in.read(buf, sizeof buf)) return false;
  std::string_view head(buf, sizeof buf);
  if (head.substr(0, kMagic.size()) != kMagic) return false;
  ByteReader reader(head.substr(kMagic.size()));
  uint32_t version = reader.GetU32();
  uint32_t marker = reader.GetU32();
  bool foreign = marker == Bswap32(kByteOrderMark);
  if (!foreign && marker != kByteOrderMark) return false;
  reader.set_byte_swap(foreign);
  if (foreign) version = Bswap32(version);
  if (version != kFormatVersion) return false;
  *fingerprint_out = reader.GetU64();
  std::error_code ec;
  *size_out = std::filesystem::file_size(path, ec);
  if (ec) *size_out = 0;
  return reader.ok();
}

// The PR-4 one-file-per-signature layout behind the store interface.
// Every operation maps onto the free functions in snapshot.h; the store
// adds the sweep, the stats scan, and the operation counters.
class DirectoryStore final : public SnapshotStore {
 public:
  explicit DirectoryStore(std::string dir) : dir_(std::move(dir)) {}

  common::Result<std::shared_ptr<const core::CachedAnalysis>> Find(
      const schema::Schema& schema, const core::ClosureOptions& options,
      const std::vector<std::string>& roots, obs::Observability* obs) override {
    Observe(schema, options, &finds_);
    std::string path =
        common::StrCat(dir_, "/", SnapshotFileName(options, roots));
    auto loaded = LoadSnapshot(schema, options, path, obs);
    if (!loaded.ok()) return loaded;
    // File names hash (options, roots); on the vanishingly unlikely
    // collision the stored root list differs — report a miss.
    if (loaded.value()->roots != roots) {
      return common::NotFoundError(
          common::StrCat("snapshot ", path, ": signature collision"));
    }
    return loaded;
  }

  common::Status Save(const schema::Schema& schema,
                      const core::ClosureOptions& options,
                      const core::CachedAnalysis& entry) override {
    Observe(schema, options, &saves_);
    std::string path =
        common::StrCat(dir_, "/", SnapshotFileName(options, entry.roots));
    return SaveSnapshot(schema, options, entry, path);
  }

  common::Result<StoreSweepStats> Sweep(uint64_t live_fingerprint) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++sweeps_;
      last_fingerprint_ = live_fingerprint;
      has_fingerprint_ = true;
    }
    StoreSweepStats swept;
    for (const std::string& path : ListSnapshots()) {
      uint64_t fingerprint = 0;
      uint64_t size = 0;
      // A file whose header no longer parses can never load — sweep it
      // along with the stale generations.
      if (ReadSnapshotHeader(path, &fingerprint, &size) &&
          fingerprint == live_fingerprint) {
        ++swept.records_kept;
        continue;
      }
      std::error_code ec;
      if (std::filesystem::remove(path, ec) && !ec) {
        ++swept.records_swept;
        swept.bytes_reclaimed += size;
      }
    }
    return swept;
  }

  StoreStats Stats() const override {
    StoreStats stats;
    stats.description = common::StrCat("directory:", dir_);
    uint64_t last_fingerprint;
    bool has_fingerprint;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats.finds = finds_;
      stats.saves = saves_;
      stats.sweeps = sweeps_;
      last_fingerprint = last_fingerprint_;
      has_fingerprint = has_fingerprint_;
    }
    for (const std::string& path : ListSnapshots()) {
      uint64_t fingerprint = 0;
      uint64_t size = 0;
      bool parsed = ReadSnapshotHeader(path, &fingerprint, &size);
      ++stats.entries;
      stats.file_bytes += size;
      if (parsed && (!has_fingerprint || fingerprint == last_fingerprint)) {
        stats.live_bytes += size;
      } else {
        stats.stale_bytes += size;
      }
    }
    return stats;
  }

  std::vector<std::shared_ptr<const core::CachedAnalysis>> LoadAll(
      const schema::Schema& schema, const core::ClosureOptions& options,
      size_t limit, size_t* invalid, obs::Observability* obs) override {
    Observe(schema, options, nullptr);
    std::vector<std::shared_ptr<const core::CachedAnalysis>> entries;
    for (const std::string& path : ListSnapshots()) {
      if (entries.size() >= limit) break;
      auto entry = LoadSnapshot(schema, options, path, obs);
      if (!entry.ok()) {
        if (invalid != nullptr) ++*invalid;
        continue;
      }
      entries.push_back(std::move(entry).value());
    }
    return entries;
  }

  common::Result<std::shared_ptr<SnapshotStore>> ForkWorker(
      int /*worker_id*/) override {
    // Directory writes are already fork-safe — each file lands via its
    // own tmp+rename, and racing savers of one signature write
    // identical bytes — so a worker gets a fresh store over the same
    // directory (fresh counters, no shared mutex across the fork).
    return std::shared_ptr<SnapshotStore>(new DirectoryStore(dir_));
  }

 private:
  // Snapshot files sorted by path: directory iteration order is
  // unspecified, and LoadAll's population order must be deterministic.
  std::vector<std::string> ListSnapshots() const {
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
      if (dirent.path().extension() == ".snap") {
        paths.push_back(dirent.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  }

  // Stamps the generation the store last served and bumps `counter`
  // (when given) under the lock.
  void Observe(const schema::Schema& schema,
               const core::ClosureOptions& options, uint64_t* counter) {
    uint64_t fingerprint = SchemaFingerprint(schema, options);
    std::lock_guard<std::mutex> lock(mu_);
    if (counter != nullptr) ++*counter;
    last_fingerprint_ = fingerprint;
    has_fingerprint_ = true;
  }

  const std::string dir_;
  mutable std::mutex mu_;
  uint64_t finds_ = 0;
  uint64_t saves_ = 0;
  uint64_t sweeps_ = 0;
  // The generation the stats scan splits live/stale against: the
  // fingerprint of the last (schema, options) this store served.
  uint64_t last_fingerprint_ = 0;
  bool has_fingerprint_ = false;
};

}  // namespace

common::Result<std::string> SnapshotStore::FindRecord(
    const schema::Schema& schema, const core::ClosureOptions& options,
    const std::vector<std::string>& roots) {
  OODBSEC_ASSIGN_OR_RETURN(std::shared_ptr<const core::CachedAnalysis> entry,
                           Find(schema, options, roots));
  return EncodePackedRecord(schema, options, *entry);
}

std::shared_ptr<SnapshotStore> OpenDirectoryStore(std::string dir) {
  return std::make_shared<DirectoryStore>(std::move(dir));
}

std::shared_ptr<SnapshotStore> ResolveStore(
    std::shared_ptr<SnapshotStore> store, const std::string& deprecated_dir) {
  if (store != nullptr) return store;
  if (!deprecated_dir.empty()) return OpenDirectoryStore(deprecated_dir);
  return nullptr;
}

}  // namespace oodbsec::snapshot
