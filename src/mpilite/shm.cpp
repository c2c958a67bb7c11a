// ShmBackend implementation + the shm-backend SPMD launcher
// (Runtime::run_shm_impl). See shm.hpp for the segment layout and
// DESIGN.md §15 for the protocol rationale.

#include "mpilite/shm.hpp"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <thread>

#include "mpilite/hub.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace epi::mpilite {

namespace detail {

namespace {

// Ring and cell capacities. 256 KiB rings absorb a tick's worth of ghost
// exchanges without backpressure; larger messages stream through in
// chunks. Cells are one collective round's per-pair slice.
constexpr std::size_t kRingCap = std::size_t{1} << 18;
constexpr std::size_t kCellCap = std::size_t{1} << 18;

constexpr std::uint64_t kSegmentMagic = 0x45504953484d3031ull;  // "EPISHM01"

/// Timed cross-process futex wait: returns when *word != seen, on wake, or
/// after ~50 ms — whichever is first. The timeout is the abort backstop:
/// every wait loop re-checks the segment abort flag once per tick, so no
/// wake-per-waiter bookkeeping is needed for teardown. Deliberately NOT
/// FUTEX_PRIVATE_FLAG: waiters and wakers are different processes.
void futex_wait_tick(std::atomic<std::uint32_t>* word, std::uint32_t seen) {
  timespec ts;
  ts.tv_sec = 0;
  ts.tv_nsec = 50 * 1000 * 1000;
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT, seen,
          &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
          INT_MAX, nullptr, nullptr, 0);
}

struct alignas(64) SegmentHeader {
  std::uint64_t magic = 0;
  std::uint32_t num_ranks = 0;
  std::atomic<std::uint32_t> aborted{0};
  // Central sense-reversing barrier: `waiting` counts arrivals, the last
  // arriver resets it and bumps `seq` (the futex word waiters sleep on).
  std::atomic<std::uint32_t> barrier_seq{0};
  std::atomic<std::uint32_t> barrier_waiting{0};
};

/// One rank's published kind of the collective it is entering. Verified
/// by every rank right after the entry barrier when the checker is on.
/// Deliberately NOT the allreduce count: a count mismatch is reported from
/// the recorded history at finalize, exactly as the thread backend does.
struct alignas(64) ArenaStamp {
  std::atomic<std::uint32_t> kind{0};
};

/// One SPSC byte ring per (source -> dest) route. `head`/`tail` are free-
/// running byte cursors (never wrapped, u64: volumes past 2^32 are in
/// scope); `seq` is the eventcount word bumped by every push and pop;
/// `waiters` gates the wake syscall on the fast path.
struct alignas(64) Ring {
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> waiters{0};
  std::byte data[kRingCap];
};

std::atomic<unsigned> g_segment_counter{0};

}  // namespace

struct ShmBackend::Layout {
  SegmentHeader* header = nullptr;
  ShmCheckSlot* slots = nullptr;                // [n]
  std::atomic<std::uint64_t>* lens = nullptr;   // [n*n]
  ArenaStamp* stamps = nullptr;                 // [n]
  Ring* rings = nullptr;                        // [n*n]
  std::byte* cells = nullptr;                   // [n*n * kCellCap]

  Ring& ring(int src, int dst, int n) {
    return rings[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(dst)];
  }
  std::byte* cell(int src, int dst, int n) {
    return cells + (static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(dst)) *
                       kCellCap;
  }
  std::atomic<std::uint64_t>& len(int src, int dst, int n) {
    return lens[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(dst)];
  }
};

ShmBackend::ShmBackend(int num_ranks)
    : num_ranks_(num_ranks), layout_(std::make_unique<Layout>()) {
  EPI_REQUIRE(num_ranks >= 1, "mpilite shm backend needs at least one rank");
  const auto n = static_cast<std::size_t>(num_ranks);

  std::size_t off = 0;
  const auto take = [&off](std::size_t bytes) {
    const std::size_t at = off;
    off += (bytes + 63) & ~std::size_t{63};
    return at;
  };
  const std::size_t header_off = take(sizeof(SegmentHeader));
  const std::size_t slots_off = take(n * sizeof(ShmCheckSlot));
  const std::size_t lens_off = take(n * n * sizeof(std::atomic<std::uint64_t>));
  const std::size_t stamps_off = take(n * sizeof(ArenaStamp));
  const std::size_t rings_off = take(n * n * sizeof(Ring));
  const std::size_t cells_off = take(n * n * kCellCap);
  segment_bytes_ = off;

  // Created exclusively and unlinked before use: the segment lives on
  // through the mapping alone, so even a SIGKILL leaves no /dev/shm
  // residue. Children inherit the MAP_SHARED mapping at the same address
  // across fork, which is what lets Layout's raw pointers stay valid in
  // every process.
  char name[64];
  std::snprintf(name, sizeof(name), "/epi-mpilite-%ld-%u",
                static_cast<long>(getpid()), g_segment_counter.fetch_add(1));
  const int fd = shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
  EPI_REQUIRE(fd >= 0, "mpilite shm backend: shm_open("
                           << name << ") failed: " << std::strerror(errno));
  shm_unlink(name);
  if (ftruncate(fd, static_cast<off_t>(segment_bytes_)) != 0) {
    const int err = errno;
    close(fd);
    EPI_REQUIRE(false, "mpilite shm backend: ftruncate to "
                           << segment_bytes_
                           << " bytes failed: " << std::strerror(err));
  }
  base_ = mmap(nullptr, segment_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
               fd, 0);
  const int map_err = errno;
  close(fd);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    EPI_REQUIRE(false, "mpilite shm backend: mmap of "
                           << segment_bytes_
                           << " bytes failed: " << std::strerror(map_err));
  }

  auto* bytes = static_cast<std::byte*>(base_);
  layout_->header = new (bytes + header_off) SegmentHeader();
  layout_->slots = reinterpret_cast<ShmCheckSlot*>(bytes + slots_off);
  layout_->lens =
      reinterpret_cast<std::atomic<std::uint64_t>*>(bytes + lens_off);
  layout_->stamps = reinterpret_cast<ArenaStamp*>(bytes + stamps_off);
  layout_->rings = reinterpret_cast<Ring*>(bytes + rings_off);
  layout_->cells = bytes + cells_off;
  for (std::size_t i = 0; i < n; ++i) new (layout_->slots + i) ShmCheckSlot();
  for (std::size_t i = 0; i < n * n; ++i) {
    new (layout_->lens + i) std::atomic<std::uint64_t>(0);
  }
  for (std::size_t i = 0; i < n; ++i) new (layout_->stamps + i) ArenaStamp();
  for (std::size_t i = 0; i < n * n; ++i) new (layout_->rings + i) Ring();
  layout_->header->magic = kSegmentMagic;
  layout_->header->num_ranks = static_cast<std::uint32_t>(num_ranks);
}

ShmBackend::~ShmBackend() {
  if (base_ != nullptr) munmap(base_, segment_bytes_);
}

void ShmBackend::abort() {
  layout_->header->aborted.store(1, std::memory_order_seq_cst);
  // No wakes needed: every blocked wait re-checks the flag within one
  // futex timeout tick.
}

bool ShmBackend::aborted() const {
  return layout_->header->aborted.load(std::memory_order_relaxed) != 0;
}

ShmCheckSlot* ShmBackend::check_slots() { return layout_->slots; }

void ShmBackend::wait_tick(std::atomic<std::uint32_t>& word,
                           std::uint32_t seen) const {
  futex_wait_tick(&word, seen);
}

// --- Frame header --------------------------------------------------------

void ShmBackend::encode_frame_header(std::uint64_t length, std::uint64_t tag,
                                     std::byte out[kFrameHeaderSize]) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::byte>((length >> (8 * i)) & 0xff);
    out[8 + i] = static_cast<std::byte>((tag >> (8 * i)) & 0xff);
  }
}

void ShmBackend::decode_frame_header(const std::byte in[kFrameHeaderSize],
                                     std::uint64_t& length,
                                     std::uint64_t& tag) {
  length = 0;
  tag = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    tag |= static_cast<std::uint64_t>(in[8 + i]) << (8 * i);
  }
}

// --- Point-to-point rings -------------------------------------------------

namespace {

/// Copies `n` bytes into the ring at byte-cursor `pos` (mod capacity),
/// splitting at the wrap point.
void ring_store(Ring& ring, std::uint64_t pos, const std::byte* src,
                std::size_t n) {
  const std::size_t at = static_cast<std::size_t>(pos % kRingCap);
  const std::size_t first = std::min(n, kRingCap - at);
  std::memcpy(ring.data + at, src, first);
  std::memcpy(ring.data, src + first, n - first);
}

void ring_load(const Ring& ring, std::uint64_t pos, std::byte* dst,
               std::size_t n) {
  const std::size_t at = static_cast<std::size_t>(pos % kRingCap);
  const std::size_t first = std::min(n, kRingCap - at);
  std::memcpy(dst, ring.data + at, first);
  std::memcpy(dst + first, ring.data, n - first);
}

/// Bumps the eventcount and wakes the peer only if it announced a wait —
/// the common case (peer keeping up) costs no syscall.
void ring_signal(Ring& ring) {
  ring.seq.fetch_add(1, std::memory_order_seq_cst);
  if (ring.waiters.load(std::memory_order_seq_cst) > 0) {
    futex_wake_all(&ring.seq);
  }
}

}  // namespace

/// Streams `n` bytes onto the ring, blocking under backpressure. Each
/// transferred chunk ticks the checker so a long-but-moving send is never
/// diagnosed as a deadlock; a genuinely stuck send stops ticking and the
/// watchdog fires.
void ShmBackend::ring_write(void* ring_ptr, const std::byte* src,
                            std::size_t n, CommChecker* chk,
                            int progress_rank) const {
  Ring& ring = *static_cast<Ring*>(ring_ptr);
  std::size_t done = 0;
  while (done < n) {
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    for (;;) {
      if (aborted()) {
        throw AbortedError(
            "mpilite: communicator aborted while sending over shm");
      }
      const std::uint32_t seen = ring.seq.load(std::memory_order_seq_cst);
      head = ring.head.load(std::memory_order_acquire);
      tail = ring.tail.load(std::memory_order_relaxed);  // producer-owned
      if (tail - head < kRingCap) break;
      ring.waiters.fetch_add(1, std::memory_order_seq_cst);
      futex_wait_tick(&ring.seq, seen);
      ring.waiters.fetch_sub(1, std::memory_order_relaxed);
    }
    const std::size_t space = kRingCap - static_cast<std::size_t>(tail - head);
    const std::size_t chunk = std::min(n - done, space);
    ring_store(ring, tail, src + done, chunk);
    ring.tail.store(tail + chunk, std::memory_order_release);
    ring_signal(ring);
    if (chk != nullptr) chk->touch(progress_rank);
    done += chunk;
  }
}

void ShmBackend::ring_read(void* ring_ptr, std::byte* dst, std::size_t n,
                           CommChecker* chk, int progress_rank) const {
  Ring& ring = *static_cast<Ring*>(ring_ptr);
  std::size_t done = 0;
  while (done < n) {
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    for (;;) {
      if (aborted()) {
        throw AbortedError(
            "mpilite: communicator aborted while waiting for a message "
            "over shm");
      }
      const std::uint32_t seen = ring.seq.load(std::memory_order_seq_cst);
      tail = ring.tail.load(std::memory_order_acquire);
      head = ring.head.load(std::memory_order_relaxed);  // consumer-owned
      if (tail != head) break;
      ring.waiters.fetch_add(1, std::memory_order_seq_cst);
      futex_wait_tick(&ring.seq, seen);
      ring.waiters.fetch_sub(1, std::memory_order_relaxed);
    }
    const std::size_t avail = static_cast<std::size_t>(tail - head);
    const std::size_t chunk = std::min(n - done, avail);
    ring_load(ring, head, dst + done, chunk);
    ring.head.store(head + chunk, std::memory_order_release);
    ring_signal(ring);
    if (chk != nullptr) chk->touch(progress_rank);
    done += chunk;
  }
}

void ShmBackend::push_message(int src, int dst, int tag,
                              std::span<const std::byte> data,
                              CommChecker* chk, int progress_rank) {
  EPI_ASSERT(src != dst, "shm self-sends are stashed in Comm, not ringed");
  Ring& ring = layout_->ring(src, dst, num_ranks_);
  std::byte header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint64_t>(data.size()),
                      static_cast<std::uint64_t>(tag), header);
  ring_write(&ring, header, kFrameHeaderSize, chk, progress_rank);
  ring_write(&ring, data.data(), data.size(), chk, progress_rank);
}

std::pair<int, Bytes> ShmBackend::pop_message(int src, int dst,
                                              CommChecker* chk,
                                              int progress_rank) {
  Ring& ring = layout_->ring(src, dst, num_ranks_);
  std::byte header[kFrameHeaderSize];
  ring_read(&ring, header, kFrameHeaderSize, chk, progress_rank);
  std::uint64_t length = 0;
  std::uint64_t tag = 0;
  decode_frame_header(header, length, tag);
  Bytes payload(static_cast<std::size_t>(length));
  ring_read(&ring, payload.data(), payload.size(), chk, progress_rank);
  return {static_cast<int>(tag), std::move(payload)};
}

// --- Arena collectives ----------------------------------------------------

void ShmBackend::arena_barrier(int rank, CommChecker* chk, const char* what) {
  (void)rank;
  (void)chk;
  SegmentHeader& header = *layout_->header;
  const std::uint32_t seq =
      header.barrier_seq.load(std::memory_order_acquire);
  const std::uint32_t arrived =
      header.barrier_waiting.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<std::uint32_t>(num_ranks_)) {
    // Reset before the release bump: a rank entering the *next* barrier
    // only sees the new seq, so its increment lands on the fresh count.
    header.barrier_waiting.store(0, std::memory_order_relaxed);
    header.barrier_seq.fetch_add(1, std::memory_order_seq_cst);
    futex_wake_all(&header.barrier_seq);
    return;
  }
  while (header.barrier_seq.load(std::memory_order_acquire) == seq) {
    if (aborted()) {
      throw AbortedError(std::string("mpilite: communicator aborted at ") +
                         what);
    }
    futex_wait_tick(&header.barrier_seq, seq);
  }
}

void ShmBackend::stamp_and_sync(int rank, CollectiveKind kind,
                                CommChecker* chk, const char* what) {
  ArenaStamp& mine = layout_->stamps[rank];
  mine.kind.store(static_cast<std::uint32_t>(kind), std::memory_order_relaxed);
  arena_barrier(rank, chk, what);
  if (chk == nullptr) return;

  // Stamp verification: the entry barrier just proved every rank reached
  // *a* collective; the stamps prove it was the same one. Rank 0 scans its
  // peers, everyone else compares against rank 0, so a mismatch is
  // reported from both perspectives.
  const auto check_against = [&](int other) {
    const auto their_kind = static_cast<CollectiveKind>(
        layout_->stamps[other].kind.load(std::memory_order_relaxed));
    if (their_kind == kind) return;
    std::ostringstream oss;
    oss << "collective entry mismatch: this rank entered " << to_string(kind)
        << " but rank " << other << " entered " << to_string(their_kind)
        << "; every rank of a communicator must enter the same collective "
        << "in the same order";
    chk->report_violation(CheckKind::kCollectiveMismatch, rank, oss.str());
    throw CheckError("mpilite check: " + oss.str());
  };
  if (rank == 0) {
    for (int r = 1; r < num_ranks_; ++r) check_against(r);
  } else {
    check_against(0);
  }
}

namespace {

std::size_t rounds_for(std::uint64_t max_len) {
  if (max_len == 0) return 1;
  return static_cast<std::size_t>((max_len + kCellCap - 1) / kCellCap);
}

}  // namespace

Bytes ShmBackend::allgatherv(int rank, const Bytes& mine, CommChecker* chk,
                             CollectiveKind stamp_kind) {
  const int n = num_ranks_;
  layout_->len(rank, rank, n).store(mine.size(), std::memory_order_relaxed);
  stamp_and_sync(rank, stamp_kind, chk, "allgatherv");

  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(n));
  std::uint64_t max_len = 0;
  std::uint64_t total = 0;
  for (int r = 0; r < n; ++r) {
    sizes[static_cast<std::size_t>(r)] =
        layout_->len(r, r, n).load(std::memory_order_relaxed);
    max_len = std::max(max_len, sizes[static_cast<std::size_t>(r)]);
    total += sizes[static_cast<std::size_t>(r)];
  }
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n), 0);
  for (int r = 1; r < n; ++r) {
    prefix[static_cast<std::size_t>(r)] =
        prefix[static_cast<std::size_t>(r - 1)] +
        sizes[static_cast<std::size_t>(r - 1)];
  }

  Bytes result(static_cast<std::size_t>(total));
  const std::size_t rounds = rounds_for(max_len);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t off = static_cast<std::uint64_t>(round) * kCellCap;
    if (off < mine.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(kCellCap, mine.size() - off);
      std::memcpy(layout_->cell(rank, rank, n), mine.data() + off, chunk);
    }
    arena_barrier(rank, chk, "allgatherv");
    for (int r = 0; r < n; ++r) {
      const std::uint64_t len = sizes[static_cast<std::size_t>(r)];
      if (off >= len) continue;
      const std::size_t chunk = std::min<std::size_t>(kCellCap, len - off);
      const std::byte* src = (r == rank)
                                 ? mine.data() + off
                                 : layout_->cell(r, r, n);
      std::memcpy(result.data() + prefix[static_cast<std::size_t>(r)] + off,
                  src, chunk);
    }
    arena_barrier(rank, chk, "allgatherv");
    if (chk != nullptr) chk->touch(rank);
  }
  return result;
}

std::vector<Bytes> ShmBackend::alltoallv(int rank,
                                         const std::vector<Bytes>& outbox,
                                         CommChecker* chk) {
  const int n = num_ranks_;
  for (int d = 0; d < n; ++d) {
    layout_->len(rank, d, n).store(outbox[static_cast<std::size_t>(d)].size(),
                                   std::memory_order_relaxed);
  }
  stamp_and_sync(rank, CollectiveKind::kAlltoallv, chk, "alltoallv");

  std::vector<std::uint64_t> in_sizes(static_cast<std::size_t>(n));
  std::uint64_t max_len = 0;
  for (int s = 0; s < n; ++s) {
    in_sizes[static_cast<std::size_t>(s)] =
        layout_->len(s, rank, n).load(std::memory_order_relaxed);
    for (int d = 0; d < n; ++d) {
      max_len = std::max(max_len,
                         layout_->len(s, d, n).load(std::memory_order_relaxed));
    }
  }

  std::vector<Bytes> inbox(static_cast<std::size_t>(n));
  inbox[static_cast<std::size_t>(rank)] = outbox[static_cast<std::size_t>(rank)];
  for (int s = 0; s < n; ++s) {
    if (s == rank) continue;
    inbox[static_cast<std::size_t>(s)].resize(
        static_cast<std::size_t>(in_sizes[static_cast<std::size_t>(s)]));
  }

  const std::size_t rounds = rounds_for(max_len);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t off = static_cast<std::uint64_t>(round) * kCellCap;
    for (int d = 0; d < n; ++d) {
      if (d == rank) continue;
      const Bytes& out = outbox[static_cast<std::size_t>(d)];
      if (off >= out.size()) continue;
      const std::size_t chunk =
          std::min<std::size_t>(kCellCap, out.size() - off);
      std::memcpy(layout_->cell(rank, d, n), out.data() + off, chunk);
    }
    arena_barrier(rank, chk, "alltoallv");
    for (int s = 0; s < n; ++s) {
      if (s == rank) continue;
      Bytes& in = inbox[static_cast<std::size_t>(s)];
      if (off >= in.size()) continue;
      const std::size_t chunk = std::min<std::size_t>(kCellCap, in.size() - off);
      std::memcpy(in.data() + off, layout_->cell(s, rank, n), chunk);
    }
    arena_barrier(rank, chk, "alltoallv");
    if (chk != nullptr) chk->touch(rank);
  }
  return inbox;
}

}  // namespace detail

// --- The shm-backend SPMD launcher ---------------------------------------

namespace {

using detail::CommChecker;
using detail::Hub;

void write_all(int fd, const std::vector<std::byte>& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone; nothing useful left to do
    }
    done += static_cast<std::size_t>(n);
  }
}

std::vector<std::byte> read_to_eof(int fd) {
  std::vector<std::byte> out;
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

// Child exit statuses, shipped as the blob's first byte and reconstructed
// into the same exception taxonomy the thread backend's rethrow loop sees.
constexpr std::uint8_t kChildOk = 0;
constexpr std::uint8_t kChildError = 1;
constexpr std::uint8_t kChildAborted = 2;
constexpr std::uint8_t kChildCheckError = 3;

/// The forked rank's whole life: swap in a process-local metrics registry,
/// run the body, then ship status + checker state + metrics through the
/// exit pipe and _exit (no destructors: the parent owns the
/// segment, and gtest/atexit state inherited from the parent must not
/// fire twice). `comm` is built by the caller (Runtime is Comm's friend;
/// this free function is not).
[[noreturn]] void child_rank_main(const std::shared_ptr<Hub>& hub, int rank,
                                  Comm& comm,
                                  const std::function<void(Comm&)>& body,
                                  int write_fd) {
  obs::MetricsRegistry local_metrics;
  const bool ship_metrics = hub->obs.metrics != nullptr;
  if (ship_metrics) hub->obs.metrics = &local_metrics;

  CommChecker* chk = hub->checker.get();
  std::uint8_t status = kChildOk;
  std::string what;
  try {
    body(comm);
    if (chk != nullptr) chk->on_rank_done(rank);
  } catch (const CheckError& e) {
    status = kChildCheckError;
    what = e.what();
    hub->abort();
  } catch (const AbortedError& e) {
    status = kChildAborted;
    what = e.what();
    hub->abort();
  } catch (const std::exception& e) {
    status = kChildError;
    what = e.what();
    hub->abort();
  } catch (...) {
    status = kChildError;
    what = "mpilite: rank body threw a non-standard exception";
    hub->abort();
  }

  ByteWriter blob;
  blob.u8(status);
  blob.str(what);
  blob.u8(chk != nullptr ? 1 : 0);
  if (chk != nullptr) blob.bytes(chk->serialize_child_state(rank));
  blob.u8(ship_metrics ? 1 : 0);
  if (ship_metrics) blob.bytes(local_metrics.serialize_state());
  write_all(write_fd, blob.take());
  ::close(write_fd);
  ::_exit(0);
}

/// Threads of this process, counted in /proc/self/task.
std::size_t process_thread_count() {
  std::error_code ec;
  std::size_t count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++count;
  }
  return count;
}

// ThreadSanitizer's runtime starts a background thread of its own with
// the first thread the program creates, and makes its own locks safe
// across fork, so that one thread is not counted against the program.
#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kRuntimeThreads = 1;
#else
constexpr std::size_t kRuntimeThreads = 0;
#endif

/// Refuses to fork a multithreaded process (DESIGN.md §15): a child
/// inherits only the calling thread, and a lock another thread held
/// (malloc's included) deadlocks it. A thread joined just before the
/// launch can stay listed while the kernel reaps it, so the count is
/// re-read for up to ~100 ms before failing.
void require_single_threaded() {
  constexpr std::size_t kAllowed = 1 + kRuntimeThreads;
  std::size_t threads = process_thread_count();
  for (int retry = 0; threads > kAllowed && retry < 50; ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    threads = process_thread_count();
  }
  EPI_REQUIRE(threads <= kAllowed,
              "mpilite shm backend: the process has "
                  << threads
                  << " threads, and forking it could deadlock a rank on a "
                     "lock held by a thread that is not forked; join farm "
                     "workers (EPI_JOBS) and other threads first");
}

}  // namespace

std::vector<CheckReport> Runtime::run_shm_impl(
    int num_ranks, const std::function<void(Comm&)>& body,
    const CheckOptions* check_options, const ObsHooks& obs) {
  if (num_ranks > 1) require_single_threaded();
  auto hub = std::make_shared<Hub>(num_ranks);
  hub->obs = obs;
  hub->shm = std::make_unique<detail::ShmBackend>(num_ranks);
  // Mailboxes are unused under shm, but keep their abort wiring so
  // Hub::abort stays backend-agnostic.
  for (auto& mailbox : hub->mailboxes) mailbox->set_abort_flag(&hub->aborted);
  CommChecker* chk = nullptr;
  if (check_options != nullptr) {
    hub->checker =
        std::make_unique<CommChecker>(num_ranks, *check_options);
    chk = hub->checker.get();
    // Attach before forking so every process inherits a checker whose
    // phase/progress mirrors live in the shared segment.
    chk->attach_shm(hub->shm->check_slots());
  }

  // Fork ranks 1..n-1 first — before the watchdog thread exists, so
  // children inherit a single-threaded process image with no locked
  // mutexes. Rank 0 stays on the calling thread, as the thread backend's
  // orchestration rank would.
  std::vector<int> read_fds(static_cast<std::size_t>(num_ranks), -1);
  std::vector<pid_t> pids(static_cast<std::size_t>(num_ranks), 0);
  for (int r = 1; r < num_ranks; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) {
      const int err = errno;
      hub->abort();  // release any already-forked children
      EPI_REQUIRE(false, "mpilite shm backend: pipe() failed: "
                             << std::strerror(err));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      hub->abort();  // release any already-forked children
      EPI_REQUIRE(false, "mpilite shm backend: fork() for rank "
                             << r << " failed: " << std::strerror(err));
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (int prev = 1; prev < r; ++prev) {
        if (read_fds[static_cast<std::size_t>(prev)] >= 0) {
          ::close(read_fds[static_cast<std::size_t>(prev)]);
        }
      }
      Comm comm(hub, r);
      child_rank_main(hub, r, comm, body, fds[1]);  // never returns
    }
    ::close(fds[1]);
    read_fds[static_cast<std::size_t>(r)] = fds[0];
    pids[static_cast<std::size_t>(r)] = pid;
  }

  if (chk != nullptr) {
    Hub* hub_raw = hub.get();
    chk->start_watchdog([hub_raw] { hub_raw->abort(); });
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks));
  try {
    Comm comm(hub, 0);
    body(comm);
    if (chk != nullptr) chk->on_rank_done(0);
  } catch (...) {
    errors[0] = std::current_exception();
    hub->abort();
  }

  // Drain children in rank order: read each exit blob to EOF *before*
  // waitpid (a child blocked writing a large blob unblocks as we read; its
  // _exit closes the pipe and ends the read), then absorb its state so the
  // parent's finalize sees the same global view the thread backend builds
  // in one address space.
  for (int r = 1; r < num_ranks; ++r) {
    const std::vector<std::byte> raw =
        read_to_eof(read_fds[static_cast<std::size_t>(r)]);
    ::close(read_fds[static_cast<std::size_t>(r)]);
    int wstatus = 0;
    ::waitpid(pids[static_cast<std::size_t>(r)], &wstatus, 0);

    try {
      EPI_REQUIRE(!raw.empty(), "rank process exited without an exit blob");
      ByteReader in(raw, "mpilite exit blob from rank process");
      const std::uint8_t status = in.u8();
      const std::string what = in.str();
      if (in.u8() != 0) {
        const std::vector<std::byte> checker_blob = in.bytes();
        if (chk != nullptr) chk->absorb_child_state(r, checker_blob);
      }
      if (in.u8() != 0) {
        const std::vector<std::byte> metrics_blob = in.bytes();
        if (obs.metrics != nullptr) obs.metrics->merge_state(metrics_blob);
      }
      EPI_REQUIRE(in.done(), "trailing bytes in rank exit blob");

      switch (status) {
        case kChildOk:
          break;
        case kChildAborted:
          errors[static_cast<std::size_t>(r)] =
              std::make_exception_ptr(AbortedError(what));
          break;
        case kChildCheckError:
          errors[static_cast<std::size_t>(r)] =
              std::make_exception_ptr(CheckError(what));
          break;
        default:
          errors[static_cast<std::size_t>(r)] =
              std::make_exception_ptr(Error(what));
          break;
      }
    } catch (const Error& e) {
      // Truncated or missing blob: the child died before shipping state
      // (hard crash, _exit from library code). Surface a per-rank error;
      // its checker state is lost but the run terminates with a diagnosis
      // instead of corrupting the merge.
      std::ostringstream oss;
      oss << "mpilite: rank " << r << " process ("
          << pids[static_cast<std::size_t>(r)] << ") ";
      if (WIFSIGNALED(wstatus)) {
        oss << "was killed by signal " << WTERMSIG(wstatus);
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
        oss << "exited with status " << WEXITSTATUS(wstatus);
      } else {
        oss << "shipped an unusable exit blob";
      }
      oss << " (" << e.what() << ")";
      errors[static_cast<std::size_t>(r)] =
          std::make_exception_ptr(Error(oss.str()));
    }
  }

  return detail::finish_run(*hub, chk, errors);
}

}  // namespace epi::mpilite
