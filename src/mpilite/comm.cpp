#include "mpilite/comm.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "mpilite/hub.hpp"
#include "mpilite/shm.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace epi::mpilite {

namespace detail {

namespace {
// Tags at or above this value are reserved for collectives.
constexpr int kSystemTagBase = 1 << 30;
constexpr int kTagAllgather = kSystemTagBase + 1;
constexpr int kTagAlltoall = kSystemTagBase + 2;
}  // namespace

Hub::Hub(int n) : size(n) {
  mailboxes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) mailboxes.push_back(std::make_unique<Mailbox>());
}

Hub::~Hub() = default;

namespace {

/// Marks a rank blocked for the checker's deadlock watchdog; restores the
/// running state on scope exit (including abort-driven unwinds). `what`
/// describes the blocked operation: a string, or a callable returning one,
/// called only when a checker is installed, so that an unchecked run
/// formats no description.
struct BlockGuard {
  template <typename What>
  BlockGuard(CommChecker* checker, int rank, const What& what)
      : checker_(checker), rank_(rank) {
    if (checker_ == nullptr) return;
    if constexpr (std::is_invocable_v<const What&>) {
      checker_->enter_blocked(rank_, std::string(what()));
    } else {
      checker_->enter_blocked(rank_, std::string(what));
    }
  }
  ~BlockGuard() {
    if (checker_ != nullptr) checker_->exit_blocked(rank_);
  }
  BlockGuard(const BlockGuard&) = delete;
  BlockGuard& operator=(const BlockGuard&) = delete;

 private:
  CommChecker* checker_;
  int rank_;
};

/// Suppresses nested collective recording (allreduce runs on allgatherv).
struct CollectiveScope {
  explicit CollectiveScope(bool& flag) : flag_(flag), outer_(flag) {
    flag_ = true;
  }
  ~CollectiveScope() { flag_ = outer_; }
  bool outer() const { return outer_; }

 private:
  bool& flag_;
  bool outer_;
};

}  // namespace

// Declared in hub.hpp — shared with the shm backend (shm.cpp).
void count_message(const Hub& hub, int source, int dest, std::size_t bytes) {
  if (hub.obs.metrics == nullptr) return;
  char pair[16];
  std::snprintf(pair, sizeof(pair), "%03d->%03d", source, dest);
  hub.obs.metrics->add(std::string("mpilite.msgs.") + pair);
  if (bytes > 0) {
    hub.obs.metrics->add(std::string("mpilite.bytes.") + pair, bytes);
  }
}

void record_collective_seconds(const Hub& hub, const char* name,
                               const Timer& timer) {
  if (hub.obs.metrics == nullptr) return;
  hub.obs.metrics->observe(
      std::string("mpilite.") + name + "_s",
      hub.obs.deterministic_timing ? 0.0 : timer.elapsed_seconds());
}

void Mailbox::put(int source, int tag, Bytes payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[{source, tag}].push_back(std::move(payload));
  }
  cv_.notify_all();
}

Bytes Mailbox::take(int source, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto key = std::make_pair(source, tag);
  cv_.wait(lock, [&] {
    if (aborted_ != nullptr && aborted_->load()) return true;
    const auto it = queues_.find(key);
    return it != queues_.end() && !it->second.empty();
  });
  if (aborted_ != nullptr && aborted_->load()) {
    throw AbortedError("mpilite: communicator aborted while waiting for message");
  }
  auto& queue = queues_[key];
  Bytes payload = std::move(queue.front());
  queue.pop_front();
  return payload;
}

void Mailbox::set_abort_flag(const std::atomic<bool>* flag) { aborted_ = flag; }

void Mailbox::wake_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  cv_.notify_all();
}

void Hub::abort() {
  aborted.store(true);
  if (shm) shm->abort();  // wakes blocked ranks in every process
  for (auto& mailbox : mailboxes) mailbox->wake_all();
}

std::vector<CheckReport> finish_run(
    Hub& hub, CommChecker* chk,
    const std::vector<std::exception_ptr>& errors) {
  std::vector<CheckReport> reports;
  if (chk != nullptr) {
    chk->stop_watchdog();
    using Shutdown = CommChecker::Shutdown;
    Shutdown shutdown = Shutdown::kClean;
    const bool aborted =
        hub.aborted.load() || (hub.shm != nullptr && hub.shm->aborted());
    if (chk->deadlock_fired()) {
      shutdown = Shutdown::kDeadlock;
    } else if (aborted) {
      shutdown = Shutdown::kAborted;
    }
    reports = chk->finalize(shutdown);
  }

  // An AbortedError is a secondary casualty of the group abort — the rank
  // that actually threw carries the diagnosis, whatever its rank number.
  // Rethrow the first primary error in rank order; fall back to the first
  // AbortedError only when no rank failed for its own reason. (Under the
  // checker both AbortedError and CheckError are swallowed outright: the
  // returned reports are the diagnosis.)
  std::exception_ptr secondary;
  for (const auto& error : errors) {
    if (!error) continue;
    try {
      std::rethrow_exception(error);
    } catch (const CheckError&) {
      if (chk == nullptr) throw;
    } catch (const AbortedError&) {
      if (chk == nullptr && !secondary) secondary = error;
    } catch (...) {
      throw;
    }
  }
  if (secondary) std::rethrow_exception(secondary);
  return reports;
}

}  // namespace detail

int Comm::size() const { return hub_->size; }

BackendKind Comm::backend() const {
  return hub_->shm != nullptr ? BackendKind::kShm : BackendKind::kThread;
}

obs::MetricsRegistry* Comm::metrics() const { return hub_->obs.metrics; }

detail::CommChecker* Comm::checker() const { return hub_->checker.get(); }

/// A blocking take annotated as a blocked state for the deadlock watchdog:
/// from this rank's mailbox (thread backend) or the (source -> rank) ring
/// (shm backend).
template <typename What>
Bytes Comm::take_blocking(int source, int tag, const What& what) {
  detail::BlockGuard guard(checker(), rank_, what);
  if (hub_->shm) return shm_take(source, tag);
  return hub_->mailboxes[static_cast<std::size_t>(rank_)]->take(source, tag);
}

/// The shm receive path. The per-route ring is FIFO in send order across
/// all tags, so a pop may surface a message with a tag this call is not
/// waiting for; those park in shm_stash_ (checked first) and per-(source,
/// tag) FIFO order — the thread backend's mailbox matching rule — is
/// preserved. Self-sends never touch the segment: they are stashed
/// directly by send_bytes, mirroring the thread backend's unbounded
/// self-buffering.
Bytes Comm::shm_take(int source, int tag) {
  const auto key = std::make_pair(source, tag);
  const auto it = shm_stash_.find(key);
  if (it != shm_stash_.end() && !it->second.empty()) {
    Bytes payload = std::move(it->second.front());
    it->second.pop_front();
    return payload;
  }
  for (;;) {
    auto [got_tag, payload] =
        hub_->shm->pop_message(source, rank_, checker(), rank_);
    if (got_tag == tag) return payload;
    shm_stash_[{source, got_tag}].push_back(std::move(payload));
  }
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> data) {
  if (auto* chk = checker()) chk->on_send(rank_, dest, tag, size());
  EPI_REQUIRE(dest >= 0 && dest < size(), "send to invalid rank " << dest);
  EPI_REQUIRE(tag >= 0 && tag < detail::kSystemTagBase,
              "user tags must be in [0, 2^30)");
  bytes_sent_ += data.size();
  detail::count_message(*hub_, rank_, dest, data.size());
  if (hub_->shm) {
    if (dest == rank_) {
      shm_stash_[{rank_, tag}].emplace_back(data.begin(), data.end());
    } else {
      // Unlike the unbounded thread mailboxes, a ring send blocks under
      // backpressure (rendezvous-like, as real MPI may); mark it for the
      // watchdog so a never-received giant send is diagnosed, not hung.
      detail::BlockGuard guard(checker(), rank_, [dest, tag] {
        return "send(dest=" + std::to_string(dest) +
               ", tag=" + std::to_string(tag) + ")";
      });
      hub_->shm->push_message(rank_, dest, tag, data, checker(), rank_);
    }
  } else {
    hub_->mailboxes[static_cast<std::size_t>(dest)]->put(
        rank_, tag, Bytes(data.begin(), data.end()));
  }
  if (auto* chk = checker()) {
    chk->on_op_complete(rank_, "send(dest=" + std::to_string(dest) +
                                   ", tag=" + std::to_string(tag) + ")");
  }
}

Bytes Comm::recv_bytes(int source, int tag) {
  auto* chk = checker();
  if (chk != nullptr) chk->on_recv_args(rank_, source, tag, size());
  EPI_REQUIRE(source >= 0 && source < size(), "recv from invalid rank " << source);
  const auto what = [source, tag] {
    return "recv(source=" + std::to_string(source) +
           ", tag=" + std::to_string(tag) + ")";
  };
  Bytes payload = take_blocking(source, tag, what);
  if (chk != nullptr) {
    chk->on_delivered(rank_, source, tag);
    chk->on_op_complete(rank_, what());
  }
  return payload;
}

Bytes Comm::allgatherv_bytes(Bytes mine) {
  auto* chk = checker();
  if (chk != nullptr && !in_collective_) {
    chk->on_collective(rank_, detail::CollectiveKind::kAllgatherv, 0);
  }
  detail::CollectiveScope scope(in_collective_);
  const Timer timer;
  // Accounting is identical on both backends: one logical message per
  // peer, so metrics and bytes_sent() stay backend-independent.
  for (int dest = 0; dest < size(); ++dest) {
    if (dest == rank_) continue;
    bytes_sent_ += mine.size();
    detail::count_message(*hub_, rank_, dest, mine.size());
    if (!hub_->shm) {
      hub_->mailboxes[static_cast<std::size_t>(dest)]->put(
          rank_, detail::kTagAllgather, mine);
    }
  }
  Bytes result;
  if (hub_->shm) {
    detail::BlockGuard guard(chk, rank_, "allgatherv");
    // Nested only under allreduce, so when this call is not the top-level
    // collective the arena stamp must say "allreduce" — the collective the
    // user actually entered — for cross-rank verification and reporting.
    const auto stamp_kind = scope.outer()
                                ? detail::CollectiveKind::kAllreduce
                                : detail::CollectiveKind::kAllgatherv;
    result = hub_->shm->allgatherv(rank_, mine, chk, stamp_kind);
  } else {
    for (int source = 0; source < size(); ++source) {
      if (source == rank_) {
        result.insert(result.end(), mine.begin(), mine.end());
      } else {
        Bytes part = take_blocking(source, detail::kTagAllgather, [source] {
          return "allgatherv: waiting for the contribution of rank " +
                 std::to_string(source);
        });
        result.insert(result.end(), part.begin(), part.end());
      }
    }
  }
  if (!scope.outer()) {
    detail::record_collective_seconds(*hub_, "allgatherv", timer);
  }
  if (chk != nullptr && !scope.outer()) {
    chk->on_op_complete(rank_, "allgatherv");
  }
  return result;
}

std::vector<Bytes> Comm::alltoallv_bytes(const std::vector<Bytes>& outbox) {
  auto* chk = checker();
  if (chk != nullptr && !in_collective_) {
    chk->on_collective(rank_, detail::CollectiveKind::kAlltoallv, 0);
  }
  detail::CollectiveScope scope(in_collective_);
  const Timer timer;
  for (int dest = 0; dest < size(); ++dest) {
    if (dest == rank_) continue;
    bytes_sent_ += outbox[static_cast<std::size_t>(dest)].size();
    detail::count_message(*hub_, rank_, dest,
                          outbox[static_cast<std::size_t>(dest)].size());
    if (!hub_->shm) {
      hub_->mailboxes[static_cast<std::size_t>(dest)]->put(
          rank_, detail::kTagAlltoall, outbox[static_cast<std::size_t>(dest)]);
    }
  }
  std::vector<Bytes> inbox;
  if (hub_->shm) {
    detail::BlockGuard guard(chk, rank_, "alltoallv");
    inbox = hub_->shm->alltoallv(rank_, outbox, chk);
  } else {
    inbox.resize(static_cast<std::size_t>(size()));
    inbox[static_cast<std::size_t>(rank_)] =
        outbox[static_cast<std::size_t>(rank_)];
    for (int source = 0; source < size(); ++source) {
      if (source == rank_) continue;
      inbox[static_cast<std::size_t>(source)] =
          take_blocking(source, detail::kTagAlltoall, [source] {
            return "alltoallv: waiting for the slice from rank " +
                   std::to_string(source);
          });
    }
  }
  if (!scope.outer()) {
    detail::record_collective_seconds(*hub_, "alltoallv", timer);
  }
  if (chk != nullptr && !scope.outer()) {
    chk->on_op_complete(rank_, "alltoallv");
  }
  return inbox;
}

std::vector<std::int64_t> Comm::allreduce(
    std::span<const std::int64_t> values) {
  auto* chk = checker();
  if (chk != nullptr && !in_collective_) {
    chk->on_collective(rank_, detail::CollectiveKind::kAllreduce,
                       values.size());
  }
  detail::CollectiveScope scope(in_collective_);
  const Timer timer;
  // Gather everyone's vector, sum locally in rank order. O(P^2) messages
  // — fine for the rank counts we run (<= 64).
  Bytes raw = allgatherv_bytes(
      Bytes(reinterpret_cast<const std::byte*>(values.data()),
            reinterpret_cast<const std::byte*>(values.data()) +
                values.size_bytes()));
  const std::size_t n = values.size();
  EPI_REQUIRE(raw.size() == values.size_bytes() *
                                static_cast<std::size_t>(size()),
              "allreduce: ranks contributed different lengths");
  std::vector<std::int64_t> all(raw.size() / sizeof(std::int64_t));
  if (!raw.empty()) std::memcpy(all.data(), raw.data(), raw.size());
  std::vector<std::int64_t> result(n, 0);
  for (int r = 0; r < size(); ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      result[i] += all[static_cast<std::size_t>(r) * n + i];
    }
  }
  if (!scope.outer()) {
    detail::record_collective_seconds(*hub_, "allreduce", timer);
  }
  if (chk != nullptr && !scope.outer()) chk->on_op_complete(rank_, "allreduce");
  return result;
}

namespace {

/// EPI_MPILITE_BACKEND: unset/empty/"thread" -> thread backend,
/// "shm" -> forked processes over shared memory; anything else throws so
/// a typo cannot silently run the wrong transport.
bool shm_backend_selected() {
  const char* backend = env_raw("EPI_MPILITE_BACKEND");
  if (backend == nullptr || backend[0] == '\0') return false;
  const std::string_view value(backend);
  if (value == "thread") return false;
  if (value == "shm") return true;
  EPI_REQUIRE(false, "EPI_MPILITE_BACKEND='"
                         << backend
                         << "' is not a known transport; use 'thread' "
                            "(default) or 'shm'");
  return false;
}

}  // namespace

/// Shared SPMD driver. With `check_options` set, the group runs under the
/// CommChecker and the collected reports are returned; without it the
/// behaviour (and cost) is exactly the unchecked seed path.
std::vector<CheckReport> Runtime::run_impl(
    int num_ranks, const std::function<void(Comm&)>& body,
    const CheckOptions* check_options, const ObsHooks& obs) {
  EPI_REQUIRE(num_ranks > 0, "mpilite needs at least one rank");
  if (shm_backend_selected()) {
    return run_shm_impl(num_ranks, body, check_options, obs);
  }
  auto hub = std::make_shared<detail::Hub>(num_ranks);
  hub->obs = obs;
  for (auto& mailbox : hub->mailboxes) mailbox->set_abort_flag(&hub->aborted);
  detail::CommChecker* chk = nullptr;
  if (check_options != nullptr) {
    hub->checker =
        std::make_unique<detail::CommChecker>(num_ranks, *check_options);
    chk = hub->checker.get();
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  if (chk != nullptr) {
    // The watchdog only observes checker state and aborts through the hub,
    // which outlives it (stop_watchdog precedes finalize below).
    detail::Hub* hub_raw = hub.get();
    chk->start_watchdog([hub_raw] { hub_raw->abort(); });
  }
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(hub, r);
      try {
        body(comm);
        if (chk != nullptr) chk->on_rank_done(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        hub->abort();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return detail::finish_run(*hub, chk, errors);
}

void Runtime::run(int num_ranks, const std::function<void(Comm&)>& body) {
  run(num_ranks, body, ObsHooks{});
}

void Runtime::run(int num_ranks, const std::function<void(Comm&)>& body,
                  const ObsHooks& obs) {
  if (!env_flag("EPI_MPILITE_CHECK")) {
    run_impl(num_ranks, body, nullptr, obs);
    return;
  }
  CheckOptions options;
  options.deadlock_timeout_s = env_positive_real("EPI_MPILITE_CHECK_TIMEOUT_S",
                                                 options.deadlock_timeout_s);
  const std::vector<CheckReport> reports =
      run_impl(num_ranks, body, &options, obs);
  if (!reports.empty()) {
    throw Error("mpilite CommChecker found " +
                std::to_string(reports.size()) + " problem(s):\n" +
                format_reports(reports));
  }
}

std::vector<CheckReport> Runtime::run_checked(
    int num_ranks, const std::function<void(Comm&)>& body,
    CheckOptions options) {
  return run_impl(num_ranks, body, &options);
}

}  // namespace epi::mpilite
