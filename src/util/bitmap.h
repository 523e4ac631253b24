// One bit per index: a membership set over a dense id space at 1/8 byte
// per id. It has no O(1) reset; callers clear exactly the bits they set,
// from the list of ids they already keep (SparseScratch's key list,
// CoreMaintainer's affected list), so a reset costs O(members), not O(n).

#ifndef AVT_UTIL_BITMAP_H_
#define AVT_UTIL_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace avt {

class Bitmap {
 public:
  /// Sizes the index space to `size` ids, all clear.
  void Resize(size_t size) { words_.assign(WordsFor(size), 0); }

  /// Extends the index space; appended ids read clear, set bits stay.
  /// Never shrinks.
  void Grow(size_t size) {
    if (WordsFor(size) > words_.size()) words_.resize(WordsFor(size), 0);
  }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  void Set(size_t i) { words_[i >> 6] |= Bit(i); }
  void Reset(size_t i) { words_[i >> 6] &= ~Bit(i); }

  /// Sets bit i and returns whether it was clear before.
  bool TestAndSet(size_t i) {
    uint64_t& word = words_[i >> 6];
    const uint64_t bit = Bit(i);
    const bool was_clear = (word & bit) == 0;
    word |= bit;
    return was_clear;
  }

  /// Heap bytes held.
  size_t MemoryFootprint() const {
    return words_.capacity() * sizeof(uint64_t);
  }

 private:
  static size_t WordsFor(size_t size) { return (size + 63) / 64; }
  static uint64_t Bit(size_t i) { return uint64_t{1} << (i & 63); }

  std::vector<uint64_t> words_;
};

}  // namespace avt

#endif  // AVT_UTIL_BITMAP_H_
