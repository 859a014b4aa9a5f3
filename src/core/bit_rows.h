// Bit rows over occurrence ids — the word-parallel sets of the pi* join
// (Closure::ProcessPiStar). A row of W 64-bit words holds one bit per
// id in [0, 64 * W), so a set of partner reps is filtered against
// another a word at a time, and its members come out in ascending id
// order.
//
// KeyedRows maps 64-bit keys to such rows: the join's round-local
// record of which (first rep, origin) conclusions it already buffered,
// a row over second reps per key. It is cleared, not freed, between
// uses, so a chunk buffer reuses its capacity round after round.
//
// Not thread-safe for writers; each chunk owns its KeyedRows.
#ifndef OODBSEC_CORE_BIT_ROWS_H_
#define OODBSEC_CORE_BIT_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oodbsec::core {

// Words a row needs to hold the ids 0..max_id.
inline size_t RowWords(int max_id) {
  return static_cast<size_t>(max_id) / 64 + 1;
}

inline uint64_t RowBit(int id) { return uint64_t{1} << (id & 63); }

inline bool RowTest(const uint64_t* row, int id) {
  return (row[id >> 6] & RowBit(id)) != 0;
}
inline void RowSet(uint64_t* row, int id) { row[id >> 6] |= RowBit(id); }
inline void RowClear(uint64_t* row, int id) { row[id >> 6] &= ~RowBit(id); }

class KeyedRows {
 public:
  // Forgets every row (all of them read as zero again) and sets the
  // width of the rows handed out from now on. Keeps the capacity.
  void Reset(size_t words) {
    if (rows_ > 0) {
      for (Bucket& bucket : buckets_) bucket.row = kEmpty;
      rows_ = 0;
      pool_.clear();
    }
    words_ = words;
  }

  // The row of `key`, or nullptr when the key has none (an all-zero
  // row). The pointer is valid until the next Get or Reset.
  uint64_t* Find(uint64_t key) {
    if (rows_ == 0) return nullptr;
    for (size_t pos = Home(key);; pos = (pos + 1) & mask_) {
      const Bucket& bucket = buckets_[pos];
      if (bucket.row == kEmpty) return nullptr;
      if (bucket.key == key) return pool_.data() + bucket.row * words_;
    }
  }

  // The row of `key`, made (all zero) when the key has none. The
  // pointer is valid until the next Get or Reset.
  uint64_t* Get(uint64_t key) {
    if (uint64_t* row = Find(key)) return row;
    if ((rows_ + 1) * 2 > buckets_.size()) Grow();
    size_t pos = Home(key);
    while (buckets_[pos].row != kEmpty) pos = (pos + 1) & mask_;
    buckets_[pos] = {key, static_cast<uint32_t>(rows_)};
    ++rows_;
    pool_.resize(rows_ * words_, 0);
    return pool_.data() + (rows_ - 1) * words_;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kInitialBuckets = 16;

  struct Bucket {
    uint64_t key = 0;
    uint32_t row = kEmpty;
  };

  // Fibonacci hashing, as in PairTable.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  // Doubles the index (the row pool is untouched).
  void Grow() {
    size_t buckets = buckets_.empty() ? kInitialBuckets : buckets_.size() * 2;
    std::vector<Bucket> old(buckets, Bucket{});
    old.swap(buckets_);
    mask_ = buckets - 1;
    shift_ = 64;
    for (size_t n = buckets; n > 1; n >>= 1) --shift_;
    for (const Bucket& bucket : old) {
      if (bucket.row == kEmpty) continue;
      size_t pos = Home(bucket.key);
      while (buckets_[pos].row != kEmpty) pos = (pos + 1) & mask_;
      buckets_[pos] = bucket;
    }
  }

  std::vector<Bucket> buckets_;  // power-of-two index, linear probing
  size_t mask_ = 0;
  int shift_ = 64;               // 64 - log2(buckets_.size())
  size_t rows_ = 0;
  size_t words_ = 0;             // words per row
  std::vector<uint64_t> pool_;   // row r at [r * words_, (r + 1) * words_)
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_BIT_ROWS_H_
