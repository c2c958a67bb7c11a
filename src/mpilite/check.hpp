// CommChecker — an opt-in MPI-correctness validation layer for mpilite.
//
// The paper's production stack is C++/MPI whose nightly calibration cycles
// cannot afford a hung or silently-corrupted run. Because mpilite runs
// ranks as threads of one process, every protocol bug that is heisenbuggy
// under real MPI — mismatched collectives, unmatched sends, deadlock — is
// reproducible in-process. The checker records each rank's operation
// stream (in the spirit of MUST) and reports, at runtime:
//
//   * collective mismatches — ranks entering different collectives at the
//     same position in their call sequence, or an allreduce with an
//     element count that differs between ranks;
//   * message leaks — point-to-point sends never received, reported per
//     (source, dest, tag) at finalize;
//   * deadlock — a watchdog that fires when every rank is simultaneously
//     blocked or finished with no progress, dumping each rank's last
//     completed operation and blocked call site, then aborting the group
//     so the run terminates instead of hanging;
//   * misuse — out-of-range ranks, reserved/negative tags, and self-sends
//     (which rely on mpilite's buffering and would deadlock under a
//     rendezvous-mode MPI), with actionable messages.
//
// Enable it per-run with Runtime::run_checked, or for an existing binary
// by setting EPI_MPILITE_CHECK=1 (Runtime::run then throws at finalize if
// any report was produced). The checker only observes: message delivery
// order and payloads are unchanged, so a clean run is byte-identical with
// the checker on or off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "util/error.hpp"

namespace epi::mpilite {

/// Thrown by checked operations on invalid arguments (bad rank, reserved
/// tag). The corresponding report is recorded before the throw, so callers
/// of Runtime::run_checked see the diagnosis even though the rank died.
class CheckError : public Error {
 public:
  explicit CheckError(const std::string& what) : Error(what) {}
};

enum class CheckKind {
  kCollectiveMismatch,
  kMessageLeak,
  kDeadlock,
  kRankMisuse,
  kTagMisuse,
  kSelfSend,
};

const char* to_string(CheckKind kind);

/// One checker finding. `rank` is the offending or reporting rank, or -1
/// for group-wide findings (e.g. a message leak seen at finalize).
struct CheckReport {
  CheckKind kind;
  int rank;
  std::string message;
};

/// Human-readable multi-line rendering of a report list.
std::string format_reports(const std::vector<CheckReport>& reports);

struct CheckOptions {
  /// Watchdog patience: the deadlock report fires after every rank has
  /// been blocked (or finished) with zero checker-visible progress for
  /// this long. Must comfortably exceed scheduling jitter; legitimate
  /// long local computation never trips it because a computing rank is
  /// not blocked.
  double deadlock_timeout_s = 2.0;
};

namespace detail {

/// Public entry points whose call sequences must agree across ranks.
enum class CollectiveKind : std::uint8_t {
  kAllreduce,
  kAllgatherv,
  kAlltoallv,
};

const char* to_string(CollectiveKind kind);

/// One rank's checker mirror in the shared-memory segment (shm backend).
/// Each rank — parent or forked child — owns exactly one slot and writes
/// its phase / blocked call site / last completed operation / progress
/// counter there, so the parent's deadlock watchdog can observe every
/// process of the group. Strings are written before the phase store
/// (release) and read after the phase load (acquire); during a diagnosed
/// deadlock the owner is quiescent, so the dump reads stable text.
struct ShmCheckSlot {
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint8_t> phase{0};  // CommChecker::Phase values
  char blocked_on[104] = {};
  char last_op[104] = {};
};

/// Shared, thread-safe recorder. One instance per communicator group,
/// owned by the Hub; every hook may be called concurrently from rank
/// threads. Hooks are cheap (one mutex, small map updates) and never
/// change communication behaviour.
class CommChecker {
 public:
  CommChecker(int num_ranks, const CheckOptions& options);
  ~CommChecker();

  // --- Hooks called from Comm (rank threads) ---------------------------

  /// Validates a point-to-point send. Records misuse reports; throws
  /// CheckError on out-of-range dest or reserved tag (the send cannot be
  /// performed), records-but-allows self-sends. On success registers the
  /// message as pending delivery.
  void on_send(int rank, int dest, int tag, int comm_size);

  /// Validates a point-to-point receive's arguments the same way.
  void on_recv_args(int rank, int source, int tag, int comm_size);

  /// A user-tag message (source -> rank, tag) was taken out of the
  /// mailbox; clears its pending-delivery record.
  void on_delivered(int rank, int source, int tag);

  /// Records entry into a collective at the next position of `rank`'s
  /// collective call sequence. `count` is an allreduce's element count,
  /// which MPI requires to be equal on every rank; the other collectives
  /// pass 0.
  void on_collective(int rank, CollectiveKind kind, std::size_t count);

  /// Marks `rank` as blocked inside `what` (a human-readable call-site
  /// description) / as running again. Used by the deadlock watchdog and
  /// for the per-rank dump when it fires.
  void enter_blocked(int rank, std::string what);
  void exit_blocked(int rank);

  /// Records completion of a top-level operation (for "last operation"
  /// in deadlock dumps).
  void on_op_complete(int rank, std::string op);

  /// Marks `rank`'s body as returned; a done rank can no longer unblock
  /// anyone, so it counts toward the deadlock condition.
  void on_rank_done(int rank);

  /// A bare progress tick for `rank` — used by the shm backend once per
  /// transferred chunk / collective round so a long-but-moving transfer
  /// is never diagnosed as a deadlock.
  void touch(int rank);

  /// Records a violation found outside the checker's own hooks (the shm
  /// arena's collective-stamp verification); the caller is responsible
  /// for aborting (typically by throwing CheckError after this returns).
  void report_violation(CheckKind kind, int rank, std::string message);

  // --- Cross-process support (shm backend) ------------------------------

  /// Mirrors every subsequent hook's rank state into `slots` (one per
  /// rank, living in the shared segment) and makes the watchdog read
  /// phases and progress from there instead of this process's local
  /// state. Call in the parent before forking so every process inherits
  /// an attached checker.
  void attach_shm(ShmCheckSlot* slots);

  /// Serializes the state a forked child accumulated — its live reports,
  /// its rank's collective history, and its send/delivered tallies — for
  /// shipment through the exit pipe.
  std::vector<std::byte> serialize_child_state(int rank) const;

  /// Merges one child's shipped state into this (parent) checker:
  /// reports append in absorption order, the child's history replaces the
  /// empty slot for `rank`, and send/delivered tallies add, so finalize
  /// sees the same global view the thread backend accumulates in-process.
  void absorb_child_state(int rank, std::span<const std::byte> blob);

  // --- Lifecycle (runtime thread) --------------------------------------

  /// Starts the watchdog thread. `abort_group` is invoked (once) when a
  /// deadlock is diagnosed, after the deadlock reports are recorded; it
  /// must wake every blocked rank.
  void start_watchdog(std::function<void()> abort_group);
  void stop_watchdog();

  bool deadlock_fired() const { return deadlock_fired_.load(); }

  /// How the run ended, which determines which finalize-time checks are
  /// meaningful.
  enum class Shutdown {
    kClean,     // all ranks returned: leaks + full collective history
    kDeadlock,  // watchdog aborted: collective history prefix only
    kAborted,   // a rank threw: live reports only (pending state is noise)
  };

  /// Runs finalize-time analyses and returns every report recorded during
  /// the run plus the finalize findings. Call exactly once, after all
  /// rank threads joined and the watchdog stopped.
  std::vector<CheckReport> finalize(Shutdown shutdown);

 private:
  struct CollectiveRecord {
    CollectiveKind kind;
    std::size_t count;
  };

  enum class Phase : std::uint8_t { kRunning, kBlocked, kDone };

  struct RankState {
    Phase phase = Phase::kRunning;
    std::string blocked_on;  // valid while phase == kBlocked
    std::string last_op = "(no operation yet)";
  };

  void record(CheckKind kind, int rank, std::string message);
  void bump_progress(int rank);
  void mirror_locked(int rank);
  std::uint64_t observed_progress() const;
  void collect_phases(bool& any_blocked, bool& all_stuck) const;
  void watchdog_loop();
  void check_collective_history(Shutdown shutdown,
                                std::vector<CheckReport>& out) const;
  static std::string describe(const CollectiveRecord& rec);

  const int num_ranks_;
  const CheckOptions options_;

  mutable std::mutex mutex_;
  std::vector<CheckReport> reports_;
  std::vector<RankState> ranks_;
  // Send and delivery tallies keyed by (source, dest, tag); kept as two
  // separate monotone maps (rather than one decremented pending map) so a
  // child process's tallies can be shipped and added into the parent's —
  // finalize reports any key where sends exceed deliveries, in sorted key
  // order.
  std::map<std::tuple<int, int, int>, std::int64_t> sends_;
  std::map<std::tuple<int, int, int>, std::int64_t> delivered_;
  std::vector<std::vector<CollectiveRecord>> history_;
  ShmCheckSlot* shm_slots_ = nullptr;  // non-null once attach_shm ran

  // Watchdog coordination. `progress_` ticks on every hook; the watchdog
  // fires only when it is static while every rank is blocked or done.
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<bool> deadlock_fired_{false};
  std::function<void()> abort_group_;
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace detail

}  // namespace epi::mpilite
