// Discrete-event simulator of the remote cluster's Slurm execution
// (paper §IV "scripts are used to submit Slurm job arrays, which are
// scheduled to run using the heuristic scheduling strategy", §VI Fig 9).
//
// The mapper hands Slurm an *ordered* task list; Slurm then does a
// certain amount of real-time optimization. The DES models exactly that:
// whole-node allocations, an in-order queue with optional backfill (a
// later job may start if the head job cannot), per-region simultaneous
// database-connection bounds, actual runtimes sampled around the
// estimates, and the 10-hour nightly window. It reports the paper's
// utilization metric EC = busy node-hours / (total nodes x time of last
// completion).
//
// One event loop serves perfect and faulty hardware alike (DESIGN.md §6).
// Nodes crash on the schedule of DesConfig::faults; with no injector, or
// a disabled one, that schedule is empty and only completions occur.
// Running jobs on a crashed node are killed and requeued from their last
// checkpoint (CheckpointSpec), and every fault/recovery is recorded in the
// optional ResilienceLedger.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/machine.hpp"
#include "cluster/task_model.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "util/rng.hpp"

namespace epi::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace epi {

struct JobRecord {
  std::uint64_t task_id = 0;
  double start_hours = 0.0;
  double end_hours = 0.0;
  std::uint32_t nodes = 0;
};

struct DesResult {
  std::vector<JobRecord> jobs;   // completed runs, in start order
  std::size_t unfinished = 0;    // did not fit in the window
  double makespan_hours = 0.0;   // last completion
  /// EC: busy node-hours within [0, makespan] / (nodes x makespan).
  double utilization = 0.0;
  /// Node-hours held by every run, killed ones included, summed in start
  /// order.
  double busy_node_hours = 0.0;

  // Fault-path accounting (0 when fault injection is off).
  std::size_t jobs_requeued = 0;        // kill-and-requeue events
  double wasted_node_hours = 0.0;       // execution lost to kills
  double checkpoint_node_hours = 0.0;   // checkpoint write/restore cost
};

struct DesConfig {
  /// Runtime noise: actual = estimate x LogNormal(0, sigma). The paper's
  /// Fig 8 shows substantial per-state runtime variance.
  double runtime_sigma = 0.15;
  /// Whether the scheduler may start a later queued job when the head of
  /// the queue does not fit (Slurm backfill). Disabling this makes the
  /// queue strictly next-fit.
  bool backfill = true;
  /// Stop dispatching jobs that could not finish by the window end
  /// (0 = no window).
  double window_hours = 0.0;

  /// Optional fault injector (nullptr or disabled = perfect hardware: no
  /// outages, so no kills).
  const FaultInjector* faults = nullptr;
  /// Checkpoint/requeue model. An active spec adds its checkpoint writes
  /// to every run's wall time, with or without faults.
  CheckpointSpec checkpoint;
  /// Optional fault/recovery event sink.
  ResilienceLedger* ledger = nullptr;
  /// Horizon over which node outages are pre-scheduled when there is no
  /// window (window_hours == 0); crashes past the horizon are not
  /// modeled. Ignored when a window is set (the window is the horizon).
  double fault_horizon_hours = 336.0;

  /// Optional trace sink (nullptr = no tracing; the schedule is the same).
  /// When set, every job becomes an 'X' span on its lowest node's lane of
  /// `trace_pid`, killed attempts become "job.killed" spans, and
  /// busy-node / queue-depth / utilization counter series are sampled at
  /// every DES clock advance. Span times are trace_base_hours + DES
  /// clock, so spans land inside the workflow's "simulate" phase.
  obs::TraceRecorder* trace = nullptr;
  std::uint32_t trace_pid = 0;
  double trace_base_hours = 0.0;
  /// Optional metrics sink: job counts and a per-job runtime histogram.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Simulates the ordered `queue` on `cluster`. Task order IS the schedule
/// policy: feed it the FFDT-DC or NFDT-DC order from pack_tasks, or raw
/// submission order.
DesResult simulate_cluster(const ClusterSpec& cluster,
                           const std::vector<SimTask>& queue,
                           const DesConfig& config, Rng& rng,
                           std::uint32_t db_bound = db_connection_bound());

}  // namespace epi
