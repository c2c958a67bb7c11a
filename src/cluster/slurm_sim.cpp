#include "cluster/slurm_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <queue>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace epi {

namespace {

// Bucket bounds for the per-job runtime histogram (hours).
const std::vector<double>& job_hour_bounds() {
  static const std::vector<double> bounds = {0.25, 0.5, 1.0, 2.0,
                                             4.0,  8.0, 16.0};
  return bounds;
}

/// One sample of the DES time series: busy/free/down node counts, queue
/// depth, and instantaneous utilization, all on the DES clock.
void sample_counters(const DesConfig& config, double clock,
                     std::uint32_t total_nodes, std::size_t busy_nodes,
                     std::size_t down_nodes, std::size_t queue_depth) {
  if (config.trace == nullptr) return;
  const double ts = config.trace_base_hours + clock;
  obs::TraceArgs nodes;
  nodes["busy"] = static_cast<std::uint64_t>(busy_nodes);
  nodes["down"] = static_cast<std::uint64_t>(down_nodes);
  nodes["free"] =
      static_cast<std::uint64_t>(total_nodes - busy_nodes - down_nodes);
  config.trace->counter(config.trace_pid, "slurm.nodes", ts,
                        std::move(nodes));
  obs::TraceArgs queue;
  queue["depth"] = static_cast<std::uint64_t>(queue_depth);
  config.trace->counter(config.trace_pid, "slurm.queue", ts,
                        std::move(queue));
  obs::TraceArgs utilization;
  utilization["busy_fraction"] =
      static_cast<double>(busy_nodes) / static_cast<double>(total_nodes);
  config.trace->counter(config.trace_pid, "slurm.utilization", ts,
                        std::move(utilization));
}

/// Emits the 'X' span for one job occupation of its nodes. The span lands
/// on the lane of the job's lowest-numbered node (occupancy guarantees
/// spans on one lane never overlap); lanes are tid = node + 1, keeping
/// tid 0 free for the workflow's own phase spans.
void emit_job_span(const DesConfig& config, const SimTask& task,
                   std::uint32_t lane_node, double start, double end,
                   const char* category) {
  if (config.trace == nullptr) return;
  config.trace->thread_name(config.trace_pid, lane_node + 1,
                            "node " + std::to_string(lane_node));
  obs::TraceArgs args;
  args["task"] = static_cast<std::uint64_t>(task.id);
  args["region"] = task.region;
  args["nodes"] = static_cast<std::uint64_t>(task.nodes_required);
  args["est_hours"] = task.est_hours;
  config.trace->complete(config.trace_pid, lane_node + 1,
                         "task " + std::to_string(task.id), category,
                         config.trace_base_hours + start, end - start,
                         std::move(args));
}

/// What the backfill scan reads of one queued task, packed so the scan
/// walks small records in queue order instead of chasing pointers into
/// SimTasks.
struct ScanKey {
  double est_hours = 0.0;
  std::uint32_t nodes = 0;
  std::uint32_t region = 0;  // dense id of the task's region
  std::uint32_t db_connections = 0;
};

/// Pending jobs, as indices into the submitted queue.
using PendingQueue = std::deque<std::uint32_t>;

/// The first job at or after `it` that can start now, or `pending.end()`.
/// Jobs passed over that can no longer finish inside the window are
/// erased and counted in `expired`; without backfill only the head of the
/// queue may start. This scan is the DES's hot loop (it walks the whole
/// queue after every event), so it stays a small function over the index
/// queue, the free-node count and the per-region DB usage.
PendingQueue::iterator next_startable(PendingQueue& pending,
                                      PendingQueue::iterator from,
                                      const std::vector<ScanKey>& keys,
                                      std::uint32_t free_nodes,
                                      const std::vector<std::uint32_t>& db_used,
                                      std::uint32_t db_bound,
                                      const DesConfig& config, double clock,
                                      std::size_t& expired) {
  // Locals the compiler can keep in registers across the loop.
  const ScanKey* const key = keys.data();
  const std::uint32_t* const used = db_used.data();
  const double window = config.window_hours;
  const bool backfill = config.backfill;
  for (auto it = from, end = pending.end(); it != end;) {
    const ScanKey& job = key[*it];
    // Conservative admission: expected completion must fit the window.
    if (window > 0.0 && !(clock + job.est_hours <= window)) {
      ++expired;
      it = pending.erase(it);
      end = pending.end();
      continue;
    }
    if (job.nodes <= free_nodes &&
        used[job.region] + job.db_connections <= db_bound) {
      return it;
    }
    if (!backfill) break;
    ++it;
  }
  return pending.end();
}

/// One start of one job: its first run, or a requeued run resuming from
/// its checkpoint. Attempt ids count starts, so id order is start order.
struct Attempt {
  std::uint32_t task = 0;       // index into the submitted queue
  bool killed = false;
  double base_runtime = 0.0;    // sampled useful runtime, kept on requeue
  double saved_at_start = 0.0;  // durable checkpoint progress resumed from
  double start = 0.0;
  double wall = 0.0;            // planned occupation of the nodes
  double end = 0.0;             // start + wall, or the kill time
  std::size_t first_node = 0;   // offset of its node ids in attempt_nodes
};

}  // namespace

/// The one event loop: completions, node crashes and node repairs. Without
/// an enabled injector the outage list is empty and only completions
/// occur. A killed job re-enters the *front* of the queue (Slurm requeues
/// preempted work at high priority) carrying its durable checkpoint
/// progress.
DesResult simulate_cluster(const ClusterSpec& cluster,
                           const std::vector<SimTask>& queue,
                           const DesConfig& config, Rng& rng,
                           std::uint32_t db_bound) {
  EPI_REQUIRE(cluster.nodes > 0, "cluster has no nodes");
  EPI_REQUIRE(queue.size() <= std::numeric_limits<std::uint32_t>::max(),
              "queue of " << queue.size() << " tasks is too long");
  const CheckpointSpec& ckpt = config.checkpoint;
  ResilienceLedger* ledger = config.ledger;

  PendingQueue pending;
  std::vector<ScanKey> keys;
  keys.reserve(queue.size());
  std::map<std::string, std::uint32_t> region_ids;
  for (const SimTask& task : queue) {
    EPI_REQUIRE(task.nodes_required <= cluster.nodes,
                "task " << task.id << " wider than the cluster");
    const auto region = region_ids.emplace(
        task.region, static_cast<std::uint32_t>(region_ids.size()));
    pending.push_back(static_cast<std::uint32_t>(keys.size()));
    keys.push_back(ScanKey{task.est_hours, task.nodes_required,
                           region.first->second, task.db_connections});
  }
  std::vector<std::uint32_t> db_used(region_ids.size(), 0);
  // A requeued job's sampled runtime (0 = not started yet) and durable
  // checkpoint progress, indexed like `queue`.
  std::vector<double> sampled_runtime(queue.size(), 0.0);
  std::vector<double> saved_hours(queue.size(), 0.0);

  const double horizon = config.window_hours > 0.0
                             ? config.window_hours
                             : config.fault_horizon_hours;
  const std::vector<NodeOutage> outages =
      config.faults != nullptr
          ? config.faults->node_outages(cluster.nodes, horizon)
          : std::vector<NodeOutage>{};
  std::size_t outage_idx = 0;

  // Free nodes as a bitmask: jobs take the lowest free ids.
  std::vector<std::uint64_t> free_mask((cluster.nodes + 63) / 64, 0);
  for (std::uint32_t n = 0; n < cluster.nodes; ++n) {
    free_mask[n / 64] |= std::uint64_t{1} << (n % 64);
  }
  std::uint32_t free_nodes = cluster.nodes;
  std::uint32_t down_nodes = 0;
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> node_owner(cluster.nodes, kNone);
  std::vector<bool> node_down(cluster.nodes, false);

  std::vector<Attempt> attempts;
  attempts.reserve(queue.size());
  std::vector<std::uint32_t> attempt_nodes;
  // (end, attempt id): earliest end first, exact ties in start order.
  using EndEvent = std::pair<double, std::size_t>;
  std::priority_queue<EndEvent, std::vector<EndEvent>, std::greater<EndEvent>>
      completions;
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>,
                      std::greater<std::pair<double, std::uint32_t>>>
      repairs;  // (up time, node)

  double clock = 0.0;
  DesResult result;

  // Remaining wall time an attempt occupies its nodes: restore cost (when
  // resuming), the un-done useful work, and the remaining checkpoint
  // writes. Without checkpointing this is the sampled runtime itself.
  auto remaining_wall_hours = [&](double base_runtime, double saved) {
    const double useful = std::max(0.0, base_runtime - saved);
    double wall = useful;
    if (ckpt.active() && base_runtime > 0.0) {
      const double period = ckpt.period_hours(base_runtime);
      const double writes_done =
          period > 0.0 ? std::floor(saved / period + 0.5) : 0.0;
      const double writes_left = std::max(
          0.0, static_cast<double>(ckpt.checkpoints_per_run()) - writes_done);
      wall += writes_left * ckpt.write_cost_s / 3600.0;
    }
    if (saved > 0.0) wall += ckpt.restore_hours();
    return wall;
  };

  auto start_job = [&](std::uint32_t q) {
    const ScanKey& key = keys[q];
    if (sampled_runtime[q] <= 0.0) {
      const double noise = std::exp(rng.normal(0.0, config.runtime_sigma));
      sampled_runtime[q] = key.est_hours * noise;
    }
    const std::size_t id = attempts.size();
    Attempt& attempt = attempts.emplace_back();
    attempt.task = q;
    attempt.base_runtime = sampled_runtime[q];
    attempt.saved_at_start = saved_hours[q];
    attempt.start = clock;
    attempt.wall = remaining_wall_hours(attempt.base_runtime,
                                        attempt.saved_at_start);
    attempt.end = clock + attempt.wall;
    attempt.first_node = attempt_nodes.size();
    std::uint32_t needed = key.nodes;
    for (std::size_t w = 0; needed > 0; ++w) {
      for (; needed > 0 && free_mask[w] != 0; --needed) {
        const auto node = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(free_mask[w])));
        free_mask[w] &= free_mask[w] - 1;
        node_owner[node] = id;
        attempt_nodes.push_back(node);
      }
    }
    free_nodes -= key.nodes;
    db_used[key.region] += key.db_connections;
    completions.push({attempt.end, id});
  };

  auto dispatch = [&] {
    for (auto it = pending.begin();;) {
      // The scan may erase expired jobs, so read end() only after it.
      it = next_startable(pending, it, keys, free_nodes, db_used, db_bound,
                          config, clock, result.unfinished);
      if (it == pending.end()) break;
      start_job(*it);
      it = pending.erase(it);
    }
  };

  auto free_node = [&](std::uint32_t node) {
    free_mask[node / 64] |= std::uint64_t{1} << (node % 64);
    ++free_nodes;
  };

  auto release_nodes = [&](const Attempt& attempt) {
    const ScanKey& key = keys[attempt.task];
    for (std::uint32_t i = 0; i < key.nodes; ++i) {
      const std::uint32_t node = attempt_nodes[attempt.first_node + i];
      if (!node_down[node]) free_node(node);
      node_owner[node] = kNone;
    }
    EPI_ASSERT(db_used[key.region] >= key.db_connections,
               "DB usage accounting underflow");
    db_used[key.region] -= key.db_connections;
  };

  auto complete_attempt = [&](std::size_t id) {
    const Attempt& attempt = attempts[id];
    const SimTask& task = queue[attempt.task];
    if (ckpt.active()) {
      // Wall time that was checkpoint I/O rather than simulation (guard
      // against float residue in occupied - useful).
      const double useful = attempt.base_runtime - attempt.saved_at_start;
      const double overhead =
          std::max(0.0, (attempt.end - attempt.start) - useful);
      result.checkpoint_node_hours += task.nodes_required * overhead;
      if (ledger != nullptr) {
        ledger->add_checkpoint_overhead_node_hours(task.nodes_required *
                                                   overhead);
      }
    }
    emit_job_span(config, task, attempt_nodes[attempt.first_node],
                  attempt.start, attempt.end, "job");
    if (config.metrics != nullptr) {
      config.metrics->add("slurm.jobs_completed");
      config.metrics->observe("slurm.job_hours", attempt.end - attempt.start,
                              job_hour_bounds());
    }
    release_nodes(attempt);
  };

  auto kill_attempt = [&](std::size_t id, std::uint32_t crashed_node) {
    Attempt& attempt = attempts[id];
    const SimTask& task = queue[attempt.task];
    attempt.killed = true;
    attempt.end = clock;
    const double elapsed = clock - attempt.start;
    // Durable progress: checkpoints completed since this attempt started
    // (execution after the restore phase alternates work and writes).
    double saved = attempt.saved_at_start;
    if (ckpt.active()) {
      const double restore_offset =
          attempt.saved_at_start > 0.0 ? ckpt.restore_hours() : 0.0;
      const double executed = std::max(0.0, elapsed - restore_offset);
      const double period = ckpt.period_hours(attempt.base_runtime);
      const double slot = period + ckpt.write_cost_s / 3600.0;
      if (slot > 0.0) {
        const double new_periods = std::floor(executed / slot) * period;
        saved = std::min(attempt.saved_at_start + new_periods,
                         static_cast<double>(ckpt.checkpoints_per_run()) *
                             period);
      }
    }
    const double progressed = saved - attempt.saved_at_start;
    const double wasted = std::max(0.0, elapsed - progressed);
    result.wasted_node_hours += task.nodes_required * wasted;
    ++result.jobs_requeued;
    if (ledger != nullptr) {
      ledger->add_wasted_node_hours(task.nodes_required * wasted);
      ledger->record(FaultKind::kJobKilled, clock,
                     "task " + std::to_string(task.id) + " on node " +
                         std::to_string(crashed_node));
      ledger->record(FaultKind::kJobRequeued, clock,
                     "task " + std::to_string(task.id) + " from checkpoint");
    }
    emit_job_span(config, task, attempt_nodes[attempt.first_node],
                  attempt.start, clock, "job.killed");
    if (config.metrics != nullptr) config.metrics->add("slurm.jobs_requeued");
    saved_hours[attempt.task] = saved;
    release_nodes(attempt);
    pending.push_front(attempt.task);
  };

  auto crash_node = [&](const NodeOutage& outage) {
    const std::uint32_t node = outage.node;
    if (node_down[node]) return;  // defensive; schedules do not overlap
    node_down[node] = true;
    ++down_nodes;
    if (ledger != nullptr) {
      ledger->record(FaultKind::kNodeCrash, clock,
                     "node " + std::to_string(node));
    }
    if (node_owner[node] != kNone) {
      kill_attempt(node_owner[node], node);
    } else {
      free_mask[node / 64] &= ~(std::uint64_t{1} << (node % 64));
      --free_nodes;
    }
    repairs.push({outage.up_hours, node});
  };

  auto repair_node = [&](std::uint32_t node) {
    EPI_ASSERT(node_down[node], "repairing a node that is not down");
    node_down[node] = false;
    --down_nodes;
    free_node(node);
    if (ledger != nullptr) {
      ledger->record(FaultKind::kNodeRepair, clock,
                     "node " + std::to_string(node));
    }
  };

  auto sample_now = [&] {
    sample_counters(config, clock, cluster.nodes,
                    cluster.nodes - free_nodes - down_nodes, down_nodes,
                    pending.size());
  };

  dispatch();
  sample_now();
  while (true) {
    // Drop completion events of killed attempts; what remains on the heap
    // is exactly the running set.
    while (!completions.empty() && attempts[completions.top().second].killed) {
      completions.pop();
    }
    if (completions.empty() && pending.empty()) break;

    // Next event: job completion, node crash, or node repair. Crashes and
    // repairs only matter while work remains (checked above).
    constexpr int kNoEvent = 0, kCompletion = 1, kCrash = 2, kRepair = 3;
    int kind = kNoEvent;
    double when = 0.0;
    if (!completions.empty()) {
      kind = kCompletion;
      when = completions.top().first;
    }
    if (outage_idx < outages.size() &&
        (kind == kNoEvent || outages[outage_idx].down_hours < when)) {
      kind = kCrash;
      when = outages[outage_idx].down_hours;
    }
    if (!repairs.empty() && (kind == kNoEvent || repairs.top().first < when)) {
      kind = kRepair;
      when = repairs.top().first;
    }
    if (kind == kNoEvent) break;  // pending work that can never start

    clock = when;
    switch (kind) {
      case kCompletion: {
        const std::size_t id = completions.top().second;
        completions.pop();
        complete_attempt(id);
        break;
      }
      case kCrash:
        crash_node(outages[outage_idx]);
        ++outage_idx;
        break;
      case kRepair: {
        const std::uint32_t node = repairs.top().second;
        repairs.pop();
        repair_node(node);
        break;
      }
      default:
        break;
    }
    dispatch();
    sample_now();
  }
  result.unfinished += pending.size();
  if (config.metrics != nullptr && result.unfinished > 0) {
    config.metrics->add("slurm.jobs_unfinished", result.unfinished);
  }

  // Accounting in start order. A completed attempt held its nodes for its
  // planned wall time, a killed one until the kill; without kills and
  // checkpoints this is the sampled runtimes summed as the jobs started.
  for (const Attempt& attempt : attempts) {
    const SimTask& task = queue[attempt.task];
    const double occupied =
        attempt.killed ? attempt.end - attempt.start : attempt.wall;
    result.busy_node_hours += task.nodes_required * occupied;
    if (!attempt.killed) {
      result.jobs.push_back(JobRecord{task.id, attempt.start, attempt.end,
                                      task.nodes_required});
    }
  }
  result.makespan_hours = clock;
  result.utilization =
      clock > 0.0 ? result.busy_node_hours /
                        (static_cast<double>(cluster.nodes) * clock)
                  : 1.0;
  return result;
}

}  // namespace epi
