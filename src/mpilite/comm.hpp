// mpilite — a thread-backed message-passing runtime.
//
// The paper's EpiHiper is "a parallel codeset in C++/MPI" (§III): the
// contact network is partitioned across MPI processes and infection events
// crossing partition boundaries are exchanged each tick. This environment
// has no MPI implementation installed, so mpilite provides the same
// programming model — SPMD ranks, matched point-to-point sends/receives,
// and the collectives the engine issues (allgatherv, alltoallv and an
// exact int64 sum allreduce) — with ranks running as threads of one
// process.
//
// The abstraction boundary is faithful: simulator code addresses peers only
// by rank and moves data only through Comm, so swapping in real MPI would
// be a reimplementation of this header, not of the simulator. All
// operations are collective-or-matched exactly as in MPI; there is no
// shared-memory back door.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mpilite/check.hpp"
#include "util/error.hpp"

namespace epi::obs {
class MetricsRegistry;
}

namespace epi::mpilite {

using Bytes = std::vector<std::byte>;

/// Optional observability sinks for a communicator group. With `metrics`
/// set, every message records per-rank-pair "mpilite.msgs.SSS->DDD" /
/// "mpilite.bytes.SSS->DDD" counters and every top-level collective
/// records its wall time into an "mpilite.<collective>_s" histogram
/// (exactly 0.0 under deterministic_timing, keeping metrics files
/// byte-reproducible). MetricsRegistry is thread-safe; ranks report
/// concurrently. Null metrics = the exact unobserved seed path.
struct ObsHooks {
  obs::MetricsRegistry* metrics = nullptr;
  bool deterministic_timing = false;
};

/// Which transport carries a communicator group. The thread backend is the
/// default and the byte-identity reference; the shm backend runs ranks as
/// forked processes over a POSIX shared-memory segment (select it with
/// EPI_MPILITE_BACKEND=shm). Simulator code only needs this to decide
/// whether rank-local results must be gathered to rank 0 explicitly —
/// under threads they share an address space, under processes they do not.
enum class BackendKind { kThread, kShm };

/// Thrown on ranks woken by a group abort: another rank failed, or the
/// CommChecker's deadlock watchdog fired. Secondary by construction — the
/// primary cause is the first rank's exception or the checker report.
class AbortedError : public Error {
 public:
  explicit AbortedError(const std::string& what) : Error(what) {}
};

namespace detail {

class CommChecker;

/// One rank's inbound mailbox: messages keyed by (source, tag), delivered
/// in FIFO order per key (MPI's non-overtaking guarantee).
class Mailbox {
 public:
  void put(int source, int tag, Bytes payload);
  Bytes take(int source, int tag);

  /// Installs the group abort flag; a set flag turns blocked takes into
  /// exceptions so one failing rank cannot deadlock the others.
  void set_abort_flag(const std::atomic<bool>* flag);
  void wake_all();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, std::deque<Bytes>> queues_;
  const std::atomic<bool>* aborted_ = nullptr;
};

struct Hub;  // shared state for one communicator group

}  // namespace detail

/// A communicator handle owned by one rank. All methods are safe to call
/// concurrently from the owning rank's thread only (as with MPI).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// The transport carrying this group (see BackendKind).
  BackendKind backend() const;

  /// This group's metrics sink, or null when none is attached. Under the
  /// shm backend each forked rank swaps in a process-local registry whose
  /// state is merged into the real one after the run, so rank bodies must
  /// reach the registry through here rather than capture a pointer from
  /// the launching process.
  obs::MetricsRegistry* metrics() const;

  // --- Point-to-point (blocking, buffered) ------------------------------

  void send_bytes(int dest, int tag, std::span<const std::byte> data);
  Bytes recv_bytes(int source, int tag);

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               std::span<const std::byte>(
                   reinterpret_cast<const std::byte*>(data.data()),
                   data.size() * sizeof(T)));
  }

  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send<T>(dest, tag, std::span<const T>(data));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes raw = recv_bytes(source, tag);
    EPI_REQUIRE(raw.size() % sizeof(T) == 0,
                "received payload not a multiple of element size");
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  // --- Collectives (must be called by all ranks) ------------------------

  /// Element-wise sum of every rank's int64 vector (all of one length);
  /// every rank receives the result. Exact — no round-trip through
  /// double, so sums are correct beyond 2^53 (population-scale counters
  /// need this).
  std::vector<std::int64_t> allreduce(std::span<const std::int64_t> values);

  /// Concatenation of every rank's (variable-length) contribution, in rank
  /// order; every rank receives the full concatenation.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes raw = allgatherv_bytes(
        Bytes(reinterpret_cast<const std::byte*>(mine.data()),
              reinterpret_cast<const std::byte*>(mine.data()) + mine.size() * sizeof(T)));
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Personalized all-to-all: outbox[d] goes to rank d; returns inbox where
  /// inbox[s] came from rank s. Outbox must have exactly size() entries.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& outbox) {
    static_assert(std::is_trivially_copyable_v<T>);
    EPI_REQUIRE(static_cast<int>(outbox.size()) == size(),
                "alltoallv outbox must have one entry per rank");
    std::vector<Bytes> raw_out(outbox.size());
    for (std::size_t d = 0; d < outbox.size(); ++d) {
      const auto* begin = reinterpret_cast<const std::byte*>(outbox[d].data());
      raw_out[d].assign(begin, begin + outbox[d].size() * sizeof(T));
    }
    std::vector<Bytes> raw_in = alltoallv_bytes(raw_out);
    std::vector<std::vector<T>> inbox(raw_in.size());
    for (std::size_t s = 0; s < raw_in.size(); ++s) {
      EPI_REQUIRE(raw_in[s].size() % sizeof(T) == 0,
                  "alltoallv payload not a multiple of element size");
      inbox[s].resize(raw_in[s].size() / sizeof(T));
      if (!raw_in[s].empty()) {
        std::memcpy(inbox[s].data(), raw_in[s].data(), raw_in[s].size());
      }
    }
    return inbox;
  }

  /// Total bytes this rank has sent through point-to-point and alltoallv
  /// (communication-volume accounting for the strong-scaling model).
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Runtime;
  Comm(std::shared_ptr<detail::Hub> hub, int rank)
      : hub_(std::move(hub)), rank_(rank) {}

  detail::CommChecker* checker() const;
  /// `what` describes the blocked receive for the checker: a string, or a
  /// callable that formats one only when a checker is installed (comm.cpp).
  template <typename What>
  Bytes take_blocking(int source, int tag, const What& what);
  Bytes allgatherv_bytes(Bytes mine);
  std::vector<Bytes> alltoallv_bytes(const std::vector<Bytes>& outbox);
  Bytes shm_take(int source, int tag);

  std::shared_ptr<detail::Hub> hub_;
  int rank_;
  std::uint64_t bytes_sent_ = 0;
  // shm backend only: messages popped off a ring while waiting for a
  // different tag, parked here keyed by (source, tag). Per-key FIFO order
  // is preserved because the ring itself is FIFO per route and this rank
  // is the route's only consumer.
  std::map<std::pair<int, int>, std::deque<Bytes>> shm_stash_;
  // True while inside a top-level collective, so collectives implemented
  // in terms of other collectives (allreduce over allgatherv) record one
  // history entry, not two. Per-rank state; never shared across threads.
  bool in_collective_ = false;
};

/// SPMD launcher: runs `body` on `num_ranks` threads, each with its own
/// Comm. Exceptions thrown by any rank are captured; the first one (by
/// rank order) is rethrown after all threads join.
///
/// Setting EPI_MPILITE_CHECK=1 in the environment makes run() execute
/// under the CommChecker (see check.hpp) and throw epi::Error at finalize
/// if any report was produced — a zero-code-change correctness lane for
/// existing binaries. EPI_MPILITE_CHECK_TIMEOUT_S overrides the deadlock
/// watchdog patience.
class Runtime {
 public:
  static void run(int num_ranks, const std::function<void(Comm&)>& body);

  /// As run(), with observability sinks attached to the group.
  static void run(int num_ranks, const std::function<void(Comm&)>& body,
                  const ObsHooks& obs);

  /// Runs `body` with the CommChecker enabled and returns the collected
  /// reports (empty for a correct program). Seeded-violation tests use
  /// this form; deadlocks terminate with a report instead of hanging.
  /// Exceptions thrown by rank bodies are rethrown as with run(), except
  /// CheckError and abort-induced AbortedError, which are represented by
  /// the reports themselves.
  static std::vector<CheckReport> run_checked(
      int num_ranks, const std::function<void(Comm&)>& body,
      CheckOptions options = {});

 private:
  static std::vector<CheckReport> run_impl(int num_ranks,
                                           const std::function<void(Comm&)>& body,
                                           const CheckOptions* check_options,
                                           const ObsHooks& obs = {});

  /// The shm-backend launcher (shm.cpp): forks one process per rank over
  /// a shared segment, runs rank 0 on the calling thread, and merges each
  /// child's shipped state (checker, metrics) before the shared finalize
  /// path.
  static std::vector<CheckReport> run_shm_impl(
      int num_ranks, const std::function<void(Comm&)>& body,
      const CheckOptions* check_options, const ObsHooks& obs);
};

}  // namespace epi::mpilite
