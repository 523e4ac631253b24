// Ascending sort of 32-bit ids in O(size) time: LSD radix sort, four
// 8-bit digits, each a stable counting pass. Work is proportional to the
// list and a fixed 256-bucket table per digit, never to the id range,
// so a per-delta caller keeps scaling with churn. A digit that every id
// shares (the top byte, whenever n < 2^24) costs no pass.

#ifndef AVT_UTIL_RADIX_SORT_H_
#define AVT_UTIL_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace avt {

/// Sorts `ids` ascending, the same result as std::sort. `scratch` is a
/// reusable buffer; the two vectors may swap storage.
inline void RadixSortIds(std::vector<uint32_t>& ids,
                         std::vector<uint32_t>& scratch) {
  constexpr int kDigits = 4;
  const size_t size = ids.size();
  if (size < 2) return;
  std::array<std::array<size_t, 256>, kDigits> counts{};
  for (uint32_t id : ids) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][(id >> (8 * d)) & 0xFF];
  }
  scratch.resize(size);
  for (int d = 0; d < kDigits; ++d) {
    std::array<size_t, 256>& count = counts[d];
    if (count[(ids[0] >> (8 * d)) & 0xFF] == size) continue;  // one bucket
    size_t offset = 0;
    for (size_t& c : count) {
      const size_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (uint32_t id : ids) scratch[count[(id >> (8 * d)) & 0xFF]++] = id;
    ids.swap(scratch);
  }
}

}  // namespace avt

#endif  // AVT_UTIL_RADIX_SORT_H_
