// Per-vertex scratch sized by what a pass touches, not by n.
//
// The follower oracle's cascades read and write only the vertices they
// reach: a few hundred per base cascade, about ten per marginal probe.
// A dense EpochArray of 16-byte records pays 16 bytes for every vertex
// of the graph to serve them. SparseScratch keeps the records of the
// live epoch in an open-addressing table (linear probing, power-of-two
// capacity, load <= 1/4; it grows and never shrinks) and answers
// membership from a 1-bit-per-vertex bitmap, so a lookup of a vertex
// the pass never wrote — the common case: most base reads fall outside
// the anchors' cascade — costs one bit test (125 KiB at n = 1M, small
// enough to stay in L2) and never touches the table.
//
// Clear() is O(entries): it clears the bitmap bits from the key list and
// bumps the table's epoch, which turns every slot stale at once.
//
// Reference contract: the T& that Mutable() returns stays valid only
// until the next insertion (a Mutable() of an absent id) or Clear(). An
// insertion may rehash, which moves every slot. Read and write a record
// through its reference before touching another absent id.

#ifndef AVT_UTIL_SPARSE_SCRATCH_H_
#define AVT_UTIL_SPARSE_SCRATCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitmap.h"
#include "util/status.h"

namespace avt {

/// Per-id value store over a dense 32-bit id space whose absent ids read
/// as T{}; O(entries) whole-store reset.
template <typename T>
class SparseScratch {
 public:
  SparseScratch() = default;
  explicit SparseScratch(size_t size) { Grow(size); }

  /// Extends the id space to `size` ids; live entries stay, appended ids
  /// read as absent. Never shrinks.
  void Grow(size_t size) { present_.Grow(size); }

  /// Number of live entries.
  size_t size() const { return keys_.size(); }

  /// Heap bytes held: the bitmap (1 bit per id) plus the table and key
  /// list at their high-water capacity.
  size_t MemoryFootprint() const {
    return present_.MemoryFootprint() + slots_.capacity() * sizeof(Slot) +
           keys_.capacity() * sizeof(uint32_t);
  }

  /// Removes every entry in O(entries). On stamp wrap-around (once per
  /// 2^32 clears) the table is physically reset so stale stamps can
  /// never collide with a reused epoch.
  void Clear() {
    for (uint32_t key : keys_) present_.Reset(key);
    keys_.clear();
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  bool Contains(uint32_t i) const { return present_.Test(i); }

  /// The live value, or T{} if i has no entry.
  T Get(uint32_t i) const {
    return present_.Test(i) ? slots_[Find(i)].value : T{};
  }

  /// The live value for in-place update; an absent id is first inserted
  /// as T{}. See the reference contract above.
  T& Mutable(uint32_t i) {
    if (present_.Test(i)) return slots_[Find(i)].value;
    present_.Set(i);
    if ((keys_.size() + 1) * kMaxLoadInverse > slots_.size()) {
      Rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    Slot& slot = slots_[FreeSlot(i)];
    slot = Slot{i, epoch_, T{}};
    keys_.push_back(i);
    return slot.value;
  }

 private:
  struct Slot {
    uint32_t key;
    uint32_t stamp;  // == epoch_ iff the slot is live
    T value;
  };
  static constexpr size_t kMinCapacity = 16;
  // Load <= 1/4, not 1/2: the per-query bundle is probed for every
  // neighbor a cascade scans, and at 1/2 the longer probe runs made full
  // follower queries (~3 us each) 5-15% slower than with a dense array;
  // at 1/4 they match it. The tables hold one cascade, not n, so the
  // doubled capacity costs kilobytes.
  static constexpr size_t kMaxLoadInverse = 4;

  size_t Home(uint32_t i) const {
    // Fibonacci hashing: cascades touch runs of nearby ids, which the
    // multiply spreads over the whole table.
    return static_cast<size_t>((i * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Slot of a present id. An insertion takes the first non-live slot on
  /// its probe path, so every slot before a live entry on that path is
  /// live with another key: the first key match is the live entry, and
  /// no stamp needs reading. A membership bit left set for an id with no
  /// live slot would walk past a stale slot (and, with no stale key
  /// match, spin forever); Debug builds fail on the first such slot.
  size_t Find(uint32_t i) const {
    size_t s = Home(i);
    AVT_DCHECK(slots_[s].stamp == epoch_);
    while (slots_[s].key != i) {
      s = (s + 1) & mask_;
      AVT_DCHECK(slots_[s].stamp == epoch_);
    }
    return s;
  }

  /// First non-live slot on i's probe path (load <= 1/4: one exists).
  size_t FreeSlot(uint32_t i) const {
    size_t s = Home(i);
    while (slots_[s].stamp == epoch_) s = (s + 1) & mask_;
    return s;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old(capacity, Slot{0, 0, T{}});
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.stamp == epoch_) slots_[FreeSlot(slot.key)] = slot;
    }
  }

  Bitmap present_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> keys_;  // live ids, for Clear's bitmap reset
  uint32_t epoch_ = 1;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace avt

#endif  // AVT_UTIL_SPARSE_SCRATCH_H_
