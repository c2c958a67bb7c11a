// Worker threads for the data-parallel steps of the region build, and the
// stable bucket scatter they share.
//
// Each step gives the same bytes at any worker count: the workers split the
// input into contiguous slices, and every result is laid out in slice
// order. The worker count comes from the machine and the input size only
// (workers_for); the kernels take it as an argument as well, so tests can
// force counts the machine would not pick.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace epi {

/// std::thread::hardware_concurrency(), floored at 1. The simulation farm
/// and the region build size themselves against this one count.
std::size_t hardware_limit();

/// Workers for `items` units of work: one per whole `grain`, at least 1
/// and at most hardware_limit(). An input below two grains stays on the
/// calling thread.
std::size_t workers_for(std::size_t items, std::size_t grain);

/// Runs fn(0) .. fn(workers - 1) at once, fn(0) on the calling thread, and
/// returns when every call has returned. If any call threw, the exception
/// of the lowest-numbered worker that threw is rethrown after the join.
/// With workers <= 1 this is fn(0).
void run_workers(std::size_t workers,
                 const std::function<void(std::size_t)>& fn);

/// First item of worker w's slice when `items` are split into `workers`
/// contiguous slices whose sizes differ by at most one.
inline std::size_t slice_begin(std::size_t items, std::size_t workers,
                               std::size_t w) {
  return w * (items / workers) + std::min(w, items % workers);
}

/// An allocator whose vectors leave added elements unwritten, for arrays
/// that a parallel scatter then fills completely: their pages are first
/// touched by the workers that write them, not by a serial fill before.
/// Only for implicit-lifetime types (scalars and aggregates of them), whose
/// objects the allocation itself creates.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Entries per worker below which a bucket scatter gains nothing from
/// another thread.
inline constexpr std::size_t kScatterGrain = std::size_t{1} << 18;

namespace detail {
[[noreturn]] void throw_bucket_overflow(std::size_t bucket);
}  // namespace detail

/// Stable counting scatter of entries 0 .. entries - 1 into `buckets`
/// buckets. bucket_of(j) names entry j's bucket, and place(j, slot) must
/// store entry j at output position `slot`. On return `offsets` holds
/// buckets + 1 values, bucket b owns the slots [offsets[b], offsets[b+1]),
/// and every bucket lists its entries in ascending j: the order a stable
/// sort by bucket gives, at any worker count.
///
/// Worker w counts, then places, the w-th contiguous slice of the entries.
/// Inside every bucket the slots are laid out worker by worker, so slice
/// order is entry order. The scratch is one 32-bit count per worker and
/// bucket; a bucket of 2^32 entries or more throws Error instead of
/// wrapping. Workers allocate nothing, so they leave no malloc arenas.
///
/// `offsets` is a vector of std::uint64_t (any allocator).
/// Returns the first j with bucket_of(j) >= buckets, or `entries` when
/// there is none. In the first case place is never called and `offsets`
/// is unspecified.
template <typename BucketOf, typename Place, typename Offsets>
std::size_t stable_scatter(std::size_t entries, std::size_t buckets,
                           std::size_t workers, const BucketOf& bucket_of,
                           const Place& place, Offsets& offsets) {
  workers = std::clamp<std::size_t>(workers, 1,
                                     std::max<std::size_t>(entries, 1));
  offsets.assign(buckets + 1, 0);
  // counts[w * buckets + b]: worker w's entries in bucket b, then the slot
  // of its first one relative to offsets[b].
  std::vector<std::uint32_t> counts(workers * buckets, 0);
  std::vector<std::size_t> first_bad(workers, entries);
  run_workers(workers, [&](std::size_t w) {
    std::uint32_t* const count = counts.data() + w * buckets;
    const std::size_t end = slice_begin(entries, workers, w + 1);
    for (std::size_t j = slice_begin(entries, workers, w); j < end; ++j) {
      const std::size_t b = bucket_of(j);
      if (b >= buckets) [[unlikely]] {
        first_bad[w] = j;
        return;
      }
      if (++count[b] == 0) [[unlikely]] {
        detail::throw_bucket_overflow(b);
      }
    }
  });
  for (const std::size_t bad : first_bad) {
    if (bad != entries) return bad;
  }
  run_workers(workers, [&](std::size_t w) {
    const std::size_t end = slice_begin(buckets, workers, w + 1);
    for (std::size_t b = slice_begin(buckets, workers, w); b < end; ++b) {
      std::uint64_t total = 0;
      for (std::size_t v = 0; v < workers; ++v) {
        std::uint32_t& count = counts[v * buckets + b];
        const std::uint32_t mine = count;
        count = static_cast<std::uint32_t>(total);
        total += mine;
      }
      if (total > UINT32_MAX) [[unlikely]] {
        detail::throw_bucket_overflow(b);
      }
      offsets[b + 1] = total;
    }
  });
  for (std::size_t b = 1; b <= buckets; ++b) offsets[b] += offsets[b - 1];
  run_workers(workers, [&](std::size_t w) {
    std::uint32_t* const cursor = counts.data() + w * buckets;
    const std::uint64_t* const start = offsets.data();
    const std::size_t end = slice_begin(entries, workers, w + 1);
    for (std::size_t j = slice_begin(entries, workers, w); j < end; ++j) {
      const std::size_t b = bucket_of(j);
      place(j, start[b] + cursor[b]++);
    }
  });
  return entries;
}

}  // namespace epi
