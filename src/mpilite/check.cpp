#include "mpilite/check.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/bytes.hpp"

namespace epi::mpilite {

const char* to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::kCollectiveMismatch: return "collective-mismatch";
    case CheckKind::kMessageLeak: return "message-leak";
    case CheckKind::kDeadlock: return "deadlock";
    case CheckKind::kRankMisuse: return "rank-misuse";
    case CheckKind::kTagMisuse: return "tag-misuse";
    case CheckKind::kSelfSend: return "self-send";
  }
  return "unknown";
}

std::string format_reports(const std::vector<CheckReport>& reports) {
  std::ostringstream oss;
  for (const CheckReport& report : reports) {
    oss << "[" << to_string(report.kind) << "]";
    if (report.rank >= 0) oss << " rank " << report.rank << ":";
    oss << " " << report.message << "\n";
  }
  return oss.str();
}

namespace detail {

const char* to_string(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllreduce: return "allreduce";
    case CollectiveKind::kAllgatherv: return "allgatherv";
    case CollectiveKind::kAlltoallv: return "alltoallv";
  }
  return "unknown";
}

CommChecker::CommChecker(int num_ranks, const CheckOptions& options)
    : num_ranks_(num_ranks),
      options_(options),
      ranks_(static_cast<std::size_t>(num_ranks)),
      history_(static_cast<std::size_t>(num_ranks)) {}

CommChecker::~CommChecker() { stop_watchdog(); }

void CommChecker::record(CheckKind kind, int rank, std::string message) {
  std::lock_guard<std::mutex> lock(mutex_);
  reports_.push_back(CheckReport{kind, rank, std::move(message)});
}

void CommChecker::report_violation(CheckKind kind, int rank,
                                   std::string message) {
  bump_progress(rank);
  record(kind, rank, std::move(message));
}

void CommChecker::bump_progress(int rank) {
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (shm_slots_ != nullptr && rank >= 0 && rank < num_ranks_) {
    shm_slots_[rank].progress.fetch_add(1, std::memory_order_relaxed);
  }
}

void CommChecker::touch(int rank) { bump_progress(rank); }

void CommChecker::attach_shm(ShmCheckSlot* slots) { shm_slots_ = slots; }

/// Copies `rank`'s local state into its shared slot (strings first, then
/// the phase store with release, matching the watchdog's acquire read).
/// Caller holds mutex_.
void CommChecker::mirror_locked(int rank) {
  if (shm_slots_ == nullptr) return;
  const RankState& state = ranks_[static_cast<std::size_t>(rank)];
  ShmCheckSlot& slot = shm_slots_[rank];
  std::snprintf(slot.blocked_on, sizeof(slot.blocked_on), "%s",
                state.blocked_on.c_str());
  std::snprintf(slot.last_op, sizeof(slot.last_op), "%s",
                state.last_op.c_str());
  slot.phase.store(static_cast<std::uint8_t>(state.phase),
                   std::memory_order_release);
}

void CommChecker::on_send(int rank, int dest, int tag, int comm_size) {
  bump_progress(rank);
  if (dest < 0 || dest >= comm_size) {
    std::ostringstream oss;
    oss << "send to rank " << dest << " but the communicator has ranks 0.."
        << comm_size - 1 << "; check the destination computation "
        << "(a common source is a partition index used as a rank)";
    record(CheckKind::kRankMisuse, rank, oss.str());
    throw CheckError("mpilite check: " + oss.str());
  }
  if (tag < 0 || tag >= (1 << 30)) {
    std::ostringstream oss;
    oss << "send with tag " << tag << " outside the user range [0, 2^30); "
        << "tags at or above 2^30 are reserved for mpilite collectives and "
        << "negative tags are invalid (MPI_ANY_TAG is not supported)";
    record(CheckKind::kTagMisuse, rank, oss.str());
    throw CheckError("mpilite check: " + oss.str());
  }
  if (dest == rank) {
    std::ostringstream oss;
    oss << "send to self (tag " << tag << "); mpilite buffers it, but a "
        << "blocking send-to-self deadlocks under rendezvous-mode MPI — "
        << "keep local data local instead of routing it through the "
        << "communicator";
    record(CheckKind::kSelfSend, rank, oss.str());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++sends_[{rank, dest, tag}];
}

void CommChecker::on_recv_args(int rank, int source, int tag, int comm_size) {
  bump_progress(rank);
  if (source < 0 || source >= comm_size) {
    std::ostringstream oss;
    oss << "recv from rank " << source << " but the communicator has ranks "
        << "0.." << comm_size - 1 << "; no message can ever arrive from a "
        << "nonexistent rank";
    record(CheckKind::kRankMisuse, rank, oss.str());
    throw CheckError("mpilite check: " + oss.str());
  }
  if (tag < 0 || tag >= (1 << 30)) {
    std::ostringstream oss;
    oss << "recv with tag " << tag << " outside the user range [0, 2^30); "
        << "no user send can carry this tag, so the receive can never "
        << "complete";
    record(CheckKind::kTagMisuse, rank, oss.str());
    throw CheckError("mpilite check: " + oss.str());
  }
}

void CommChecker::on_delivered(int rank, int source, int tag) {
  bump_progress(rank);
  std::lock_guard<std::mutex> lock(mutex_);
  ++delivered_[{source, rank, tag}];
}

void CommChecker::on_collective(int rank, CollectiveKind kind,
                                std::size_t count) {
  bump_progress(rank);
  std::lock_guard<std::mutex> lock(mutex_);
  history_[static_cast<std::size_t>(rank)].push_back(
      CollectiveRecord{kind, count});
}

void CommChecker::enter_blocked(int rank, std::string what) {
  bump_progress(rank);
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  state.phase = Phase::kBlocked;
  state.blocked_on = std::move(what);
  mirror_locked(rank);
}

void CommChecker::exit_blocked(int rank) {
  bump_progress(rank);
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  state.phase = Phase::kRunning;
  state.blocked_on.clear();
  mirror_locked(rank);
}

void CommChecker::on_op_complete(int rank, std::string op) {
  bump_progress(rank);
  std::lock_guard<std::mutex> lock(mutex_);
  ranks_[static_cast<std::size_t>(rank)].last_op = std::move(op);
  mirror_locked(rank);
}

void CommChecker::on_rank_done(int rank) {
  bump_progress(rank);
  std::lock_guard<std::mutex> lock(mutex_);
  ranks_[static_cast<std::size_t>(rank)].phase = Phase::kDone;
  mirror_locked(rank);
}

void CommChecker::start_watchdog(std::function<void()> abort_group) {
  abort_group_ = std::move(abort_group);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void CommChecker::stop_watchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

/// The group-wide progress counter the watchdog samples: the local atomic
/// in-process, or the per-rank slot sum once a shared segment is attached
/// (children tick their own slots from their own processes).
std::uint64_t CommChecker::observed_progress() const {
  if (shm_slots_ == nullptr) return progress_.load();
  std::uint64_t sum = 0;
  for (int r = 0; r < num_ranks_; ++r) {
    sum += shm_slots_[r].progress.load(std::memory_order_relaxed);
  }
  return sum;
}

void CommChecker::collect_phases(bool& any_blocked, bool& all_stuck) const {
  any_blocked = false;
  all_stuck = true;
  if (shm_slots_ != nullptr) {
    for (int r = 0; r < num_ranks_; ++r) {
      const auto phase = static_cast<Phase>(
          shm_slots_[r].phase.load(std::memory_order_acquire));
      if (phase == Phase::kBlocked) any_blocked = true;
      if (phase == Phase::kRunning) all_stuck = false;
    }
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const RankState& state : ranks_) {
    if (state.phase == Phase::kBlocked) any_blocked = true;
    if (state.phase == Phase::kRunning) all_stuck = false;
  }
}

void CommChecker::watchdog_loop() {
  using Clock = std::chrono::steady_clock;
  const auto timeout =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          options_.deadlock_timeout_s));
  const auto poll = std::min<Clock::duration>(
      timeout / 4 + Clock::duration{1}, std::chrono::milliseconds(50));

  std::uint64_t last_progress = observed_progress();
  auto last_change = Clock::now();
  std::unique_lock<std::mutex> wlock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(wlock, poll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;

    const std::uint64_t now_progress = observed_progress();
    const auto now = Clock::now();
    if (now_progress != last_progress) {
      last_progress = now_progress;
      last_change = now;
      continue;
    }

    bool any_blocked = false;
    bool all_stuck = true;
    collect_phases(any_blocked, all_stuck);
    if (!any_blocked || !all_stuck || now - last_change < timeout) continue;

    // Deadlock: every rank is blocked or finished, and nothing has moved
    // for a full timeout. Any deliverable message would have woken its
    // receiver (mailbox puts notify; ring pushes bump the route's futex
    // word), so nothing can ever move again. Progress ticked when the
    // last rank entered its blocked state, so the group really was wedged
    // for the whole window.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (int r = 0; r < num_ranks_; ++r) {
        std::string blocked_on;
        std::string last_op;
        if (shm_slots_ != nullptr) {
          const ShmCheckSlot& slot = shm_slots_[r];
          if (static_cast<Phase>(slot.phase.load(
                  std::memory_order_acquire)) != Phase::kBlocked) {
            continue;
          }
          // The owner has been quiescent for a full timeout, so these
          // fixed-size NUL-terminated mirrors are stable.
          blocked_on.assign(slot.blocked_on,
                            strnlen(slot.blocked_on, sizeof(slot.blocked_on)));
          last_op.assign(slot.last_op,
                         strnlen(slot.last_op, sizeof(slot.last_op)));
        } else {
          const RankState& state = ranks_[static_cast<std::size_t>(r)];
          if (state.phase != Phase::kBlocked) continue;
          blocked_on = state.blocked_on;
          last_op = state.last_op;
        }
        std::ostringstream oss;
        oss << "blocked in " << blocked_on
            << " with no deliverable message and no rank running"
            << "; last completed operation: " << last_op;
        reports_.push_back(CheckReport{CheckKind::kDeadlock, r, oss.str()});
      }
    }
    deadlock_fired_.store(true);
    if (abort_group_) abort_group_();
    return;
  }
}

std::string CommChecker::describe(const CollectiveRecord& rec) {
  std::ostringstream oss;
  oss << to_string(rec.kind);
  if (rec.kind == CollectiveKind::kAllreduce) {
    oss << "(count=" << rec.count << ")";
  }
  return oss.str();
}

void CommChecker::check_collective_history(
    Shutdown shutdown, std::vector<CheckReport>& out) const {
  std::size_t min_len = history_.empty() ? 0 : history_[0].size();
  std::size_t max_len = min_len;
  for (const auto& h : history_) {
    min_len = std::min(min_len, h.size());
    max_len = std::max(max_len, h.size());
  }

  // Compare the slots every rank reached; rank 0 is the reference.
  for (std::size_t slot = 0; slot < min_len; ++slot) {
    const CollectiveRecord& ref = history_[0][slot];
    for (int r = 1; r < num_ranks_; ++r) {
      const CollectiveRecord& rec = history_[static_cast<std::size_t>(r)][slot];
      std::ostringstream oss;
      if (rec.kind != ref.kind) {
        oss << "collective #" << slot << ": rank 0 entered " << describe(ref)
            << " but rank " << r << " entered " << describe(rec)
            << "; every rank of a communicator must enter the same "
            << "collective in the same order";
      } else if (rec.count != ref.count) {
        oss << "collective #" << slot << ": " << describe(ref)
            << " on rank 0 but " << describe(rec) << " on rank " << r
            << "; allreduce requires the same element count on every rank";
      } else {
        continue;
      }
      out.push_back(CheckReport{CheckKind::kCollectiveMismatch, r, oss.str()});
    }
  }

  // Length divergence is a finding on clean shutdown (an extra buffered
  // collective completed unmatched) and on deadlock (the extra collective
  // is usually what wedged the group). After a rank's own exception the
  // streams were cut mid-flight and unequal lengths are noise.
  if (shutdown != Shutdown::kAborted && min_len != max_len) {
    for (int r = 0; r < num_ranks_; ++r) {
      const std::size_t len = history_[static_cast<std::size_t>(r)].size();
      if (len == min_len) continue;
      std::ostringstream oss;
      oss << "entered " << len << " collectives but another rank entered "
          << "only " << min_len << "; the extra "
          << describe(history_[static_cast<std::size_t>(r)][min_len])
          << " at position #" << min_len << " was never matched";
      out.push_back(
          CheckReport{CheckKind::kCollectiveMismatch, r, oss.str()});
    }
  }
}

std::vector<CheckReport> CommChecker::finalize(Shutdown shutdown) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CheckReport> out = reports_;

  if (shutdown != Shutdown::kAborted) {
    check_collective_history(shutdown, out);
  }

  if (shutdown == Shutdown::kClean) {
    for (const auto& [key, sent] : sends_) {
      const auto it = delivered_.find(key);
      const std::int64_t count =
          sent - (it == delivered_.end() ? 0 : it->second);
      if (count <= 0) continue;
      const auto& [source, dest, tag] = key;
      std::ostringstream oss;
      oss << count << " message" << (count == 1 ? "" : "s") << " from rank "
          << source << " to rank " << dest << " with tag " << tag
          << " sent but never received; the payload sat in rank " << dest
          << "'s mailbox at finalize (missing recv, or a recv with the "
          << "wrong source/tag)";
      out.push_back(CheckReport{CheckKind::kMessageLeak, -1, oss.str()});
    }
  }
  return out;
}

// --- Cross-process state shipping ---------------------------------------
//
// A forked child's checker is a copy-on-write snapshot: its reports, its
// own rank's collective history, and its send/delivered tallies exist only
// in the child. The child serializes them into its exit blob; the parent
// absorbs every child in rank order before finalize, reconstructing the
// global view the thread backend accumulates in one address space, in the
// util/bytes.hpp codec of every parent<->child blob.

namespace {

void put_tally(ByteWriter& out,
               const std::map<std::tuple<int, int, int>, std::int64_t>& m) {
  out.u64(m.size());
  for (const auto& [key, count] : m) {
    out.i32(std::get<0>(key));
    out.i32(std::get<1>(key));
    out.i32(std::get<2>(key));
    out.u64(static_cast<std::uint64_t>(count));
  }
}

void read_tally(ByteReader& in,
                std::map<std::tuple<int, int, int>, std::int64_t>& m) {
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int a = in.i32();
    const int b = in.i32();
    const int c = in.i32();
    m[{a, b, c}] += static_cast<std::int64_t>(in.u64());
  }
}

}  // namespace

std::vector<std::byte> CommChecker::serialize_child_state(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ByteWriter out;

  out.u64(reports_.size());
  for (const CheckReport& report : reports_) {
    out.u8(static_cast<std::uint8_t>(report.kind));
    out.i32(report.rank);
    out.str(report.message);
  }

  const auto& history = history_[static_cast<std::size_t>(rank)];
  out.u64(history.size());
  for (const CollectiveRecord& rec : history) {
    out.u8(static_cast<std::uint8_t>(rec.kind));
    out.u64(rec.count);
  }

  put_tally(out, sends_);
  put_tally(out, delivered_);
  return out.take();
}

void CommChecker::absorb_child_state(int rank,
                                     std::span<const std::byte> blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  ByteReader in(blob, "mpilite checker state blob from child process");

  const std::uint64_t n_reports = in.u64();
  for (std::uint64_t i = 0; i < n_reports; ++i) {
    CheckReport report;
    report.kind = static_cast<CheckKind>(in.u8());
    report.rank = in.i32();
    report.message = in.str();
    reports_.push_back(std::move(report));
  }

  auto& history = history_[static_cast<std::size_t>(rank)];
  history.clear();  // the parent never ran this rank; the slot is empty
  const std::uint64_t n_records = in.count(1 + 8);  // kind, count
  history.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    CollectiveRecord rec;
    rec.kind = static_cast<CollectiveKind>(in.u8());
    rec.count = static_cast<std::size_t>(in.u64());
    history.push_back(rec);
  }

  read_tally(in, sends_);
  read_tally(in, delivered_);
  EPI_REQUIRE(in.done(), "mpilite: trailing bytes in checker state blob");
}

}  // namespace detail

}  // namespace epi::mpilite
