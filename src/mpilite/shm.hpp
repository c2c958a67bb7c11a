// ShmBackend — the process-spanning transport behind mpilite's Runtime/
// Comm API (DESIGN.md §15). Ranks are forked processes sharing one POSIX
// shared-memory segment created with shm_open + mmap(MAP_SHARED) and
// unlinked immediately (no /dev/shm residue even on crash). The segment
// holds, in order:
//
//   header     magic, rank count, the segment-wide abort flag, and the
//              central sense-reversing futex barrier;
//   checker    one ShmCheckSlot per rank — the cross-process mirror of
//              each rank's phase / blocked-site / last-op / progress that
//              the parent's deadlock watchdog reads (check.hpp);
//   arena      collective metadata: a u64 lens[n*n] matrix (64-bit size
//              headers end to end) and one collective-kind stamp per rank
//              that the CommChecker verifies after the entry barrier;
//   rings      n*n single-producer single-consumer byte rings, one per
//              (source -> dest) route, carrying framed point-to-point
//              messages ({u64 length, u64 tag} header + payload) in FIFO
//              send order — chunked, so messages larger than a ring
//              stream through it under backpressure;
//   cells      n*n fixed data slots the collectives copy through in
//              barrier-separated rounds (cell (s, d) carries s's
//              contribution toward d; diagonal cells carry each rank's
//              allgatherv contribution to every rank).
//
// Every blocking wait is a futex wait with a short timeout that re-checks
// the abort flag, so one failing rank (or the watchdog) unwedges the whole
// group without a wake-per-waiter protocol. All collective results are
// assembled in rank order from the same bytes the thread backend would
// produce, which is what makes the two backends byte-identical.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpilite/check.hpp"
#include "mpilite/comm.hpp"

namespace epi::mpilite::detail {

class ShmBackend {
 public:
  /// Creates, maps, and formats the segment for `num_ranks`. Must run in
  /// the parent before any fork so children inherit the mapping.
  explicit ShmBackend(int num_ranks);
  ~ShmBackend();
  ShmBackend(const ShmBackend&) = delete;
  ShmBackend& operator=(const ShmBackend&) = delete;

  int size() const { return num_ranks_; }

  /// Raises the segment-wide abort flag; every blocked rank (in any
  /// process) observes it within one futex-timeout tick and throws
  /// AbortedError.
  void abort();
  bool aborted() const;

  /// The checker's cross-process mirror slots (one per rank), for
  /// CommChecker::attach_shm.
  ShmCheckSlot* check_slots();

  // --- Point-to-point (framed SPSC rings) -------------------------------

  /// Streams one framed message onto the (src -> dst) ring, blocking under
  /// backpressure. `chk` (may be null) gets a progress tick per chunk so
  /// a long transfer is never mistaken for a deadlock.
  void push_message(int src, int dst, int tag, std::span<const std::byte> data,
                    CommChecker* chk, int progress_rank);

  /// Pops the next framed message from the (src -> dst) ring in FIFO send
  /// order, blocking until one arrives. Returns {tag, payload}; the caller
  /// (Comm) demultiplexes tags it is not currently waiting for.
  std::pair<int, Bytes> pop_message(int src, int dst, CommChecker* chk,
                                    int progress_rank);

  // --- Collectives (arena, barrier-separated rounds) --------------------

  /// Concatenation of every rank's contribution in rank order (the exact
  /// bytes the thread backend's mailbox implementation returns).
  /// `stamp_kind` is the USER-level collective being verified — allreduce
  /// runs over this transport, and a mismatch report must name what the
  /// caller wrote, not the transport detail.
  Bytes allgatherv(int rank, const Bytes& mine, CommChecker* chk,
                   CollectiveKind stamp_kind = CollectiveKind::kAllgatherv);

  /// Personalized all-to-all; outbox[d] goes to rank d, inbox[s] came
  /// from rank s.
  std::vector<Bytes> alltoallv(int rank, const std::vector<Bytes>& outbox,
                               CommChecker* chk);

  // --- Frame header encoding (exposed for the 64-bit regression test) ---

  /// 16-byte ring frame header: little-endian u64 payload length (sizes
  /// past 2^32 must survive the wire) and u64 tag.
  static constexpr std::size_t kFrameHeaderSize = 16;
  static void encode_frame_header(std::uint64_t length, std::uint64_t tag,
                                  std::byte out[kFrameHeaderSize]);
  static void decode_frame_header(const std::byte in[kFrameHeaderSize],
                                  std::uint64_t& length, std::uint64_t& tag);

 private:
  struct Layout;

  // Arena phase 1: publish this rank's collective-kind stamp, cross the
  // entry barrier, and (checker only) verify every rank entered the same
  // collective — recording + throwing CheckError on mismatch.
  void stamp_and_sync(int rank, CollectiveKind kind, CommChecker* chk,
                      const char* what);
  void arena_barrier(int rank, CommChecker* chk, const char* what);
  void wait_tick(std::atomic<std::uint32_t>& word, std::uint32_t seen) const;

  // Chunked blocking byte streams over one ring (`ring` is a Ring*, typed
  // void here because Ring is private to shm.cpp).
  void ring_write(void* ring, const std::byte* src, std::size_t n,
                  CommChecker* chk, int progress_rank) const;
  void ring_read(void* ring, std::byte* dst, std::size_t n, CommChecker* chk,
                 int progress_rank) const;

  int num_ranks_;
  std::size_t segment_bytes_ = 0;
  void* base_ = nullptr;
  std::unique_ptr<Layout> layout_;
};

}  // namespace epi::mpilite::detail
