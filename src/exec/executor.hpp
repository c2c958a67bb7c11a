// Deterministic task-pool executor for the simulation farm.
//
// The paper's nightly workflows hit their 8am deadline by running
// independent EpiHiper simulations concurrently across cluster nodes
// (100-point LHC prior designs, 30-member forecast ensembles, per-state
// replicates). Our reproduction models that concurrency in the Slurm DES
// but, until this module, *executed* every real simulation serially.
// parallel_map() is the farm driver: a fixed pool of worker threads
// (run_workers, with the calling thread as worker 0) runs independent
// tasks and hands results back in submission-index order, so callers
// observe exactly what the serial loop would have produced.
//
// Determinism contract:
//   - every task must be a pure function of its (config, seed) — the
//     property the calibration cycle and nightly engine already rely on
//     for retry-replay (`with_sim_retries` reproduces identical
//     trajectories);
//   - results are returned in submission-index order regardless of
//     completion order, so downstream accumulation (matrix rows, ledger
//     merges, report counters) is order-identical to the serial loop;
//   - an exception thrown by a task is rethrown on the calling thread at
//     the *first failing index*: tasks are issued in index order, every
//     issued task runs to completion, and issuing stops after the first
//     observed failure — any failure at a lower index belongs to an
//     already-issued task and is captured, so the minimum failing index
//     is reached on every schedule;
//   - with an effective worker count of 1 the items run in a plain loop
//     on the calling thread — no pool, no exception repackaging — the
//     exact seed code path.
//
// Concurrency comes from ExecConfig::jobs; 0 defers to the EPI_JOBS
// environment variable (default 1, so existing binaries stay serial).
//
// Observability (src/obs/): task spans land on per-worker lanes of an
// "exec" trace process, `exec.tasks` / `exec.steal` counters and an
// `exec.queue_depth` high-water gauge land in the metrics registry. The
// TraceRecorder is single-threaded by contract, so workers buffer their
// spans and the pool flushes them from the calling thread, in task-index
// order, after the join. Under deterministic timing the span lane is the
// task's round-robin home worker (the physical assignment is a scheduler
// artifact) and the steal counter is suppressed, so traced parallel runs
// stay byte-reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace epi::exec {

/// Observability sinks for one parallel_map call; null pointers disable
/// recording entirely (no buffering, no flush).
struct ExecObs {
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Byte-reproducible mode: spans are attributed to each task's
  /// round-robin home lane instead of the physical worker, durations and
  /// wall stamps read 0, and the (schedule-dependent) steal counter is
  /// not recorded.
  bool deterministic_timing = false;
  /// Emit per-task submit->start->finish flow chains ('s'/'t'/'f') from
  /// the queue lane to the task's worker lane. Ignored when trace is null.
  bool flow = true;
};

struct ExecConfig {
  /// Worker threads; 0 = resolve from the EPI_JOBS environment variable
  /// (default 1: the serial seed path).
  std::size_t jobs = 0;
  /// Span-name prefix for task spans ("<label>[<index>]").
  std::string label = "task";
  ExecObs obs;
};

/// Parses EPI_JOBS (>= 1); unset or empty means 1 (the serial seed path).
/// Malformed, zero, or negative values throw epi::Error instead of
/// silently running serial — see util/env.hpp.
std::size_t jobs_from_env();

/// config_jobs when nonzero, else jobs_from_env().
std::size_t resolve_jobs(std::size_t config_jobs);

/// Worker count actually used for `items` tasks: `jobs`, capped by the
/// item count (never below 1). An explicitly requested jobs count is
/// honored even above the core count: oversubscribed workers only cost
/// time-slicing.
std::size_t effective_workers(std::size_t jobs, std::size_t items);

namespace detail {

/// One buffered task span, flushed post-join from the calling thread.
struct TaskSpan {
  std::size_t worker = 0;
  double start_wall_s = 0.0;
  double duration_s = 0.0;
};

/// Flushes metrics + per-worker task spans (in task-index order) for one
/// parallel_map call. `spans` may be empty when tracing is off.
void flush_obs(const ExecObs& obs, const std::string& label,
               std::size_t items, std::size_t workers, std::uint64_t steals,
               const std::vector<TaskSpan>& spans);

}  // namespace detail

/// Runs fn(0) .. fn(count - 1) and returns the results in index order.
/// See the file comment for the determinism contract. fn must be safe to
/// invoke concurrently from several threads with distinct indices.
template <typename Fn>
auto parallel_index_map(std::size_t count, Fn&& fn,
                        const ExecConfig& config = {}) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<R>,
                "parallel_index_map tasks must return a value; return a "
                "placeholder from side-effect-free tasks");
  const std::size_t workers =
      effective_workers(resolve_jobs(config.jobs), count);
  const bool record = config.obs.metrics != nullptr ||
                      config.obs.trace != nullptr;

  if (workers <= 1) {
    // Serial path: the exact seed loop — tasks run in order on the
    // calling thread and exceptions propagate unwrapped.
    std::vector<R> results;
    results.reserve(count);
    std::vector<detail::TaskSpan> spans;
    const bool trace_spans = config.obs.trace != nullptr;
    if (trace_spans) spans.resize(count);
    Timer wall;
    for (std::size_t i = 0; i < count; ++i) {
      const double start_s = wall.elapsed_seconds();
      results.push_back(fn(i));
      if (trace_spans) {
        spans[i] = {0, start_s, wall.elapsed_seconds() - start_s};
      }
    }
    if (record) detail::flush_obs(config.obs, config.label, count, 1, 0, spans);
    return results;
  }

  // Parallel path. Slots are written by exactly one worker each and read
  // only after the join, so the join is the sole synchronization point.
  std::vector<std::optional<R>> slots(count);
  std::vector<std::exception_ptr> errors(count);
  std::vector<detail::TaskSpan> spans;
  const bool trace_spans = config.obs.trace != nullptr;
  if (trace_spans) spans.resize(count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> poisoned{false};
  std::atomic<std::uint64_t> steals{0};
  Timer wall;

  auto worker_loop = [&](std::size_t worker) {
    for (;;) {
      if (poisoned.load(std::memory_order_relaxed)) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      // Round-robin "home" stripe: a task picked up by any other worker
      // counts as stolen (the shared queue is effectively work stealing
      // against that notional static partition).
      if (i % workers != worker) {
        steals.fetch_add(1, std::memory_order_relaxed);
      }
      const double start_s = wall.elapsed_seconds();
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
        poisoned.store(true, std::memory_order_relaxed);
      }
      if (trace_spans) {
        spans[i] = {worker, start_s, wall.elapsed_seconds() - start_s};
      }
    }
  };

  // worker_loop catches every task's exception itself, so run_workers
  // rethrows only a failure to start a thread, after joining the started
  // workers.
  run_workers(workers, worker_loop);

  if (record) {
    detail::flush_obs(config.obs, config.label, count, workers,
                      steals.load(), spans);
  }

  // Deterministic rethrow: the lowest failing index, independent of the
  // schedule (see the file comment for why issuing order guarantees it).
  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  std::vector<R> results;
  results.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    results.push_back(std::move(*slots[i]));
  }
  return results;
}

/// Maps fn over `items`, returning results in item order. fn is invoked
/// as fn(item, index) when that compiles, else fn(item).
template <typename Item, typename Fn>
auto parallel_map(const std::vector<Item>& items, Fn&& fn,
                  const ExecConfig& config = {}) {
  return parallel_index_map(
      items.size(),
      [&](std::size_t i) {
        if constexpr (std::is_invocable_v<Fn&, const Item&, std::size_t>) {
          return fn(items[i], i);
        } else {
          return fn(items[i]);
        }
      },
      config);
}

}  // namespace epi::exec
