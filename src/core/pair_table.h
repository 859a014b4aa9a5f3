// An open-addressed map from an ordered pair of non-negative ints to a
// slot in a dense value pool — the pi* table of Closure, keyed by
// (class rep, class rep).
//
// Slots are the stable handle: a pair keeps its slot until it is
// erased, however often the index grows, so callers may store slots
// next to the pair (Closure's per-rep adjacency lists do) and reach the
// value without re-hashing. Values live in fixed-size chunks, so a
// value's address is stable too and the pool never copies on growth.
// The index is a power-of-two array of (a, b, slot) buckets probed
// linearly; erase leaves a tombstone in the index and puts the slot on
// a free list, and later inserts reuse both. The index starts at
// kInitialBuckets buckets so the many small closures (warm deltas,
// guard rechecks) stay small.
//
// Not thread-safe for writers; concurrent const readers are fine.
#ifndef OODBSEC_CORE_PAIR_TABLE_H_
#define OODBSEC_CORE_PAIR_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace oodbsec::core {

template <typename Value>
class PairTable {
 public:
  static constexpr int kNoSlot = -1;

  // Live pairs.
  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // The slot of (a, b), or kNoSlot.
  int Find(int a, int b) const {
    if (buckets_.empty()) return kNoSlot;
    for (size_t pos = Home(a, b);; pos = (pos + 1) & mask_) {
      const Bucket& bucket = buckets_[pos];
      if (bucket.slot == kEmpty) return kNoSlot;
      if (bucket.slot >= 0 && bucket.a == a && bucket.b == b) {
        return bucket.slot;
      }
    }
  }

  // The slot of (a, b), inserting a value-initialized Value when the
  // pair is absent; `inserted` (optional) reports which.
  int Insert(int a, int b, bool* inserted = nullptr) {
    assert(a >= 0 && b >= 0);
    if ((used_ + 1) * 4 > buckets_.size() * 3) Rehash();
    size_t reuse = buckets_.size();  // first tombstone on the probe path
    size_t pos = Home(a, b);
    for (;; pos = (pos + 1) & mask_) {
      const Bucket& bucket = buckets_[pos];
      if (bucket.slot == kEmpty) break;
      if (bucket.slot == kTombstone) {
        if (reuse == buckets_.size()) reuse = pos;
      } else if (bucket.a == a && bucket.b == b) {
        if (inserted != nullptr) *inserted = false;
        return bucket.slot;
      }
    }
    if (reuse != buckets_.size()) {
      pos = reuse;  // a tombstone: `used_` already counts it
    } else {
      ++used_;
    }
    int slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<int>(slots_);
      if (slots_ % kChunk == 0) {
        chunks_.push_back(std::make_unique<Value[]>(kChunk));
      }
      ++slots_;
    }
    buckets_[pos] = {a, b, slot};
    ++live_;
    if (inserted != nullptr) *inserted = true;
    return slot;
  }

  // Removes (a, b) if present; its slot's value is reset and the slot
  // is reused by a later Insert.
  void Erase(int a, int b) {
    if (buckets_.empty()) return;
    for (size_t pos = Home(a, b);; pos = (pos + 1) & mask_) {
      Bucket& bucket = buckets_[pos];
      if (bucket.slot == kEmpty) return;
      if (bucket.slot >= 0 && bucket.a == a && bucket.b == b) {
        at(bucket.slot) = Value{};
        free_.push_back(bucket.slot);
        bucket.slot = kTombstone;
        --live_;
        return;
      }
    }
  }

  const Value& at(int slot) const {
    assert(slot >= 0 && static_cast<size_t>(slot) < slots_);
    return chunks_[static_cast<size_t>(slot) / kChunk]
                  [static_cast<size_t>(slot) % kChunk];
  }
  Value& at(int slot) {
    assert(slot >= 0 && static_cast<size_t>(slot) < slots_);
    return chunks_[static_cast<size_t>(slot) / kChunk]
                  [static_cast<size_t>(slot) % kChunk];
  }

  // Calls fn(a, b, value) for every live pair, in index order (which
  // depends on the insert/erase history: sort if order matters).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& bucket : buckets_) {
      if (bucket.slot >= 0) fn(bucket.a, bucket.b, at(bucket.slot));
    }
  }

 private:
  static constexpr size_t kInitialBuckets = 8;
  static constexpr int32_t kEmpty = -1;
  static constexpr int32_t kTombstone = -2;
  static constexpr size_t kChunk = 8;  // values per pool chunk

  struct Bucket {
    int32_t a = 0;
    int32_t b = 0;
    int32_t slot = kEmpty;
  };

  // Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Home(int a, int b) const {
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
                   static_cast<uint32_t>(b);
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  // Re-inserts every live pair into a fresh index, dropping tombstones.
  // Doubles the index unless tombstones alone pushed it over the load
  // limit. Slots, and so the value pool, are untouched.
  void Rehash() {
    size_t buckets = buckets_.empty() ? kInitialBuckets : buckets_.size();
    while ((live_ + 1) * 2 > buckets) buckets *= 2;
    std::vector<Bucket> old(buckets, Bucket{});
    old.swap(buckets_);
    mask_ = buckets - 1;
    shift_ = 64;
    for (size_t n = buckets; n > 1; n >>= 1) --shift_;
    used_ = live_;
    for (const Bucket& bucket : old) {
      if (bucket.slot < 0) continue;
      size_t pos = Home(bucket.a, bucket.b);
      while (buckets_[pos].slot != kEmpty) pos = (pos + 1) & mask_;
      buckets_[pos] = bucket;
    }
  }

  std::vector<Bucket> buckets_;  // power-of-two index, linear probing
  size_t mask_ = 0;
  int shift_ = 64;               // 64 - log2(buckets_.size())
  size_t used_ = 0;              // live + tombstone buckets
  size_t live_ = 0;
  std::vector<std::unique_ptr<Value[]>> chunks_;  // slot -> value
  size_t slots_ = 0;             // slots ever handed out
  std::vector<int> free_;        // erased slots, reused LIFO
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_PAIR_TABLE_H_
