// Edge order for the frontier transmission kernel's hits.
//
// Each tick the frontier kernel enumerates (edge, record slot) hits by
// walking the out-edges of every infectious source, which leaves them in
// source order. Grouping them by susceptible target needs them in edge
// order (the in-CSR keeps each target's in-edges contiguous). A hit packs
// into one 64-bit key, rank-local edge offset in the high half and slot in
// the low half, and order_hits() puts the keys in ascending order in
// O(hits) expected time: a counting scatter into 2^k blocks of the edge
// range, k derived from the hit count, then a small sort per block.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace epi {

/// Packs a hit: `local_edge` (< 2^32, checked per rank at Simulation
/// construction) in the high 32 bits, `slot` in the low 32.
inline std::uint64_t pack_hit(std::uint64_t local_edge, std::uint32_t slot) {
  return local_edge << 32 | slot;
}

/// Writes the `count` keys that `for_each_key` produces into `hits`, in
/// ascending order. `for_each_key(emit)` must call `emit(key)` once per
/// key, the same keys both times it is called. Every key's high half must
/// be below `span` (the rank's edge count), and span and count must be at
/// most 2^32 - 1.
///
/// Pass one counts keys per block, pass two scatters each key straight
/// into its block, and each block is then sorted in place: insertion sort
/// when small, std::sort when the keys cluster. There are 2^k blocks of
/// 2^(bits(span - 1) - k) edges each, with 2^k <= max(1, count / 4), so
/// `block_ends` (the counts, then the write cursors) stays O(count): from
/// 4 hits on, the hits plus their scratch take at most 9 bytes per hit.
template <typename ForEachKey>
void order_hits(std::uint64_t span, std::size_t count,
                const ForEachKey& for_each_key,
                std::vector<std::uint32_t>& block_ends,
                std::vector<std::uint64_t>& hits) {
  hits.resize(count);
  if (count == 0) return;
  const int span_bits = static_cast<int>(std::bit_width(span - 1));
  const int k = std::min(
      std::max(static_cast<int>(std::bit_width(count)) - 3, 0), span_bits);
  const int shift = span_bits - k;  // (key >> 32) >> shift is its block
  block_ends.assign(std::size_t{1} << k, 0);
  for_each_key([&](std::uint64_t key) { ++block_ends[(key >> 32) >> shift]; });
  std::uint32_t start = 0;
  for (std::uint32_t& end : block_ends) {
    const std::uint32_t size = end;
    end = start;
    start += size;
  }
  std::uint64_t* const out = hits.data();
  for_each_key([&](std::uint64_t key) {
    out[block_ends[(key >> 32) >> shift]++] = key;
  });
  // Each cursor now sits at its block's end, the next block's start.
  constexpr std::uint32_t kInsertionLimit = 32;
  std::uint32_t begin = 0;
  for (const std::uint32_t end : block_ends) {
    if (end - begin > kInsertionLimit) {
      std::sort(out + begin, out + end);
    } else {
      for (std::uint32_t i = begin + 1; i < end; ++i) {
        const std::uint64_t key = out[i];
        std::uint32_t j = i;
        for (; j > begin && out[j - 1] > key; --j) out[j] = out[j - 1];
        out[j] = key;
      }
    }
    begin = end;
  }
}

}  // namespace epi
