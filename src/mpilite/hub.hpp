// Internal shared state of one mpilite communicator group ("the Hub"),
// split out of comm.cpp so both transport backends can see it:
//
//   * the thread backend (comm.cpp) — ranks as threads over Mailboxes;
//   * the shm backend (shm.cpp) — ranks as forked processes over a POSIX
//     shared-memory segment, with the Hub per process (fork gives every
//     child a copy-on-write snapshot; cross-process state lives in the
//     ShmBackend's mapped segment, and per-process state — the child's
//     checker tallies and local metrics registry — is shipped back to the
//     parent through each child's exit pipe and merged after the run).
//
// Nothing here is public API; simulator code includes only comm.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <vector>

#include "mpilite/comm.hpp"
#include "util/timer.hpp"

namespace epi::mpilite::detail {

class ShmBackend;

struct Hub {
  explicit Hub(int n);
  ~Hub();  // out of line: ShmBackend is incomplete here

  int size;
  std::atomic<bool> aborted{false};
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::unique_ptr<CommChecker> checker;  // null unless checking enabled
  ObsHooks obs;                          // metrics null unless attached

  /// Non-null when this group runs over the process-spanning shared-memory
  /// backend; every Comm then routes point-to-point traffic through the
  /// segment's rings and collectives through its arena instead of the
  /// mailboxes above.
  std::unique_ptr<ShmBackend> shm;

  /// Sets the abort flag (and the segment-wide flag under shm) and wakes
  /// every blocked rank of this process.
  void abort();
};

/// Per-rank-pair traffic counters ("mpilite.msgs.SSS->DDD" and
/// "mpilite.bytes.SSS->DDD"); called at every message-submission site.
void count_message(const Hub& hub, int source, int dest, std::size_t bytes);

/// Records one top-level collective's wall time (0.0 under deterministic
/// timing) into "mpilite.<name>_s".
void record_collective_seconds(const Hub& hub, const char* name,
                               const Timer& timer);

/// The backend-independent tail of a run: stops the watchdog, classifies
/// the shutdown (clean / deadlock / aborted — under shm the abort flag may
/// live only in the segment), collects the checker's finalize reports, and
/// rethrows the first rank error in rank order (with CheckError and
/// AbortedError swallowed when the checker ran, since the reports carry
/// the diagnosis). `errors` has one slot per rank;
/// child-process errors arrive reconstructed as exception_ptrs.
std::vector<CheckReport> finish_run(Hub& hub, CommChecker* chk,
                                    const std::vector<std::exception_ptr>& errors);

}  // namespace epi::mpilite::detail
