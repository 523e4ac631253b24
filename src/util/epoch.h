// Epoch-stamped scratch arrays: O(1) logical reset of per-vertex state.
//
// A pass that needs clean per-vertex scratch (flags, degrees, supports)
// many times over must not pay O(n) to clear it or allocate it each
// time. EpochArray stamps each slot with the epoch that wrote it;
// bumping the epoch invalidates everything at once. The price is one
// slot per vertex of the graph, whatever the pass touches.
//
// Layout: value and stamp live in ONE slot struct, not parallel arrays,
// so a Get/Set costs one cache line, not two (stamp + value).
//
// Users, and why each stays dense: CoreMaintainer's 16-byte cascade
// record, whose lookups mostly hit vertices the cascade already wrote
// (a sparse table there raised window-200k-durable's K-order
// maintenance from 7.2 to 8.2 ms per delta in a prototype);
// TraversalMaintainer, the reference maintainer the tests check
// CoreMaintainer against; and the OLAK baseline's region and support
// marks, in a one-shot solve that holds O(n) onion layers anyway. The
// follower oracle, whose cascades touch a few hundred vertices and whose
// lookups mostly miss, uses SparseScratch (util/sparse_scratch.h).

#ifndef AVT_UTIL_EPOCH_H_
#define AVT_UTIL_EPOCH_H_

#include <cstdint>
#include <vector>

namespace avt {

/// Per-index value store with O(1) whole-array reset.
template <typename T>
class EpochArray {
 public:
  EpochArray() = default;
  explicit EpochArray(size_t size, T default_value = T{})
      : default_(default_value) {
    Resize(size);
  }

  void Resize(size_t size) {
    slots_.assign(size, Slot{default_, 0});
    epoch_ = 1;
  }

  /// Extends the index space without disturbing live slots: appended
  /// slots carry stamp 0, which no live epoch ever equals, so they read
  /// as stale until first written. Streaming workloads grow the vertex
  /// universe mid-run and must not pay (or suffer) the full reset that
  /// Resize performs. Never shrinks.
  void Grow(size_t size) {
    if (size > slots_.size()) slots_.resize(size, Slot{default_, 0});
  }

  size_t size() const { return slots_.size(); }

  /// Heap bytes held (allocated capacity, not just the live size).
  size_t MemoryFootprint() const { return slots_.capacity() * sizeof(Slot); }

  /// Invalidates all slots in O(1). On stamp wrap-around (once per 2^32
  /// clears) the array is physically reset so stale stamps can never
  /// collide with a reused epoch.
  void Clear() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
  }

  bool Contains(size_t i) const { return slots_[i].stamp == epoch_; }

  /// Current value, or the default if the slot is stale.
  T Get(size_t i) const {
    const Slot& slot = slots_[i];
    return slot.stamp == epoch_ ? slot.value : default_;
  }

  void Set(size_t i, T value) {
    slots_[i].stamp = epoch_;
    slots_[i].value = value;
  }

  /// The live value for in-place update: a stale slot is first reset to
  /// the default and stamped. Lets a record-valued array update one
  /// field without a Get/Set round trip.
  T& Mutable(size_t i) {
    Slot& slot = slots_[i];
    if (slot.stamp != epoch_) {
      slot.value = default_;
      slot.stamp = epoch_;
    }
    return slot.value;
  }

  /// Adds `delta` to the slot (initializing from the default) and returns
  /// the new value.
  T Add(size_t i, T delta) {
    T next = Get(i) + delta;
    Set(i, next);
    return next;
  }

 private:
  struct Slot {
    T value;
    uint32_t stamp;
  };

  std::vector<Slot> slots_;
  uint32_t epoch_ = 1;
  T default_{};
};

}  // namespace avt

#endif  // AVT_UTIL_EPOCH_H_
