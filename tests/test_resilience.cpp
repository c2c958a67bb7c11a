#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "cluster/machine.hpp"
#include "cluster/slurm_sim.hpp"
#include "cluster/task_model.hpp"
#include "cluster/transfer.hpp"
#include "persondb/person_db.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "resilience/retry_policy.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"
#include "workflow/nightly.hpp"

namespace epi {
namespace {

// -------------------------------------------------------- retry policy ----

TEST(RetryPolicy, ExponentialBackoffWithCap) {
  RetryPolicy policy;
  policy.base_delay_s = 10.0;
  policy.multiplier = 2.0;
  policy.max_delay_s = 35.0;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(2, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(3, 0.5), 35.0);  // capped, not 40
  EXPECT_DOUBLE_EQ(policy.delay_s(10, 0.5), 35.0);
}

TEST(RetryPolicy, JitterIsSymmetricAndBounded) {
  RetryPolicy policy;
  policy.base_delay_s = 100.0;
  policy.jitter_fraction = 0.25;
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.5), 100.0);  // centred
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.0), 75.0);   // low edge
  EXPECT_NEAR(policy.delay_s(1, 0.999999), 125.0, 0.01);
}

TEST(RetryPolicy, GiveUpByAttemptsAndDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_s = 100.0;
  EXPECT_FALSE(policy.give_up(1, 0.0));
  EXPECT_FALSE(policy.give_up(2, 0.0));
  EXPECT_TRUE(policy.give_up(3, 0.0));    // attempts exhausted
  EXPECT_TRUE(policy.give_up(1, 100.0));  // deadline crossed
  policy.deadline_s = 0.0;                // no deadline
  EXPECT_FALSE(policy.give_up(1, 1e9));
}

TEST(RetryPolicy, InvalidInputsRejected) {
  RetryPolicy policy;
  EXPECT_THROW(policy.delay_s(0, 0.5), Error);
  EXPECT_THROW(policy.delay_s(1, 1.5), Error);
}

// ------------------------------------------------------ fault injector ----

TEST(FaultInjector, DisabledInjectorIsInert) {
  FaultSpec spec;  // enabled = false
  spec.node_mtbf_hours = 1.0;
  spec.wan_failure_prob = 1.0;
  spec.db_drop_prob = 1.0;
  spec.sim_failure_prob = 1.0;
  const FaultInjector injector(spec);
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.node_outages(100, 1000.0).empty());
  EXPECT_FALSE(injector.wan_attempt(0, 1).fail);
  EXPECT_DOUBLE_EQ(injector.wan_attempt(0, 1).throughput_factor, 1.0);
  EXPECT_FALSE(injector.db_drop("VA", 0));
  EXPECT_FALSE(injector.sim_failure(0, 1));
}

TEST(FaultInjector, OutageScheduleDeterministicAndSorted) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 7;
  spec.node_mtbf_hours = 100.0;
  spec.node_repair_hours = 2.0;
  const FaultInjector a(spec);
  const FaultInjector b(spec);
  const auto outages_a = a.node_outages(50, 500.0);
  const auto outages_b = b.node_outages(50, 500.0);
  ASSERT_FALSE(outages_a.empty());
  ASSERT_EQ(outages_a.size(), outages_b.size());
  for (std::size_t i = 0; i < outages_a.size(); ++i) {
    EXPECT_EQ(outages_a[i].node, outages_b[i].node);
    EXPECT_DOUBLE_EQ(outages_a[i].down_hours, outages_b[i].down_hours);
    EXPECT_DOUBLE_EQ(outages_a[i].up_hours,
                     outages_a[i].down_hours + 2.0);
  }
  for (std::size_t i = 1; i < outages_a.size(); ++i) {
    EXPECT_GE(outages_a[i].down_hours, outages_a[i - 1].down_hours);
  }
  spec.seed = 8;
  const auto outages_c = FaultInjector(spec).node_outages(50, 500.0);
  bool different = outages_c.size() != outages_a.size();
  for (std::size_t i = 0; !different && i < outages_a.size(); ++i) {
    different = outages_c[i].down_hours != outages_a[i].down_hours;
  }
  EXPECT_TRUE(different);
}

TEST(FaultInjector, OutageRateMatchesMtbf) {
  FaultSpec spec;
  spec.enabled = true;
  spec.node_mtbf_hours = 720.0;  // 30 days
  spec.node_repair_hours = 2.0;
  const FaultInjector injector(spec);
  // 720 nodes for 10 hours at MTBF 720h -> expect ~10 crashes.
  const auto outages = injector.node_outages(720, 10.0);
  EXPECT_GT(outages.size(), 2u);
  EXPECT_LT(outages.size(), 30u);
}

TEST(FaultInjector, WanDrawsAreKeyedNotSequential) {
  FaultSpec spec;
  spec.enabled = true;
  spec.wan_failure_prob = 0.5;
  const FaultInjector injector(spec);
  // Same key -> same outcome regardless of query order or repetition.
  const WanAttemptFault first = injector.wan_attempt(3, 1);
  injector.wan_attempt(99, 2);
  const WanAttemptFault again = injector.wan_attempt(3, 1);
  EXPECT_EQ(first.fail, again.fail);
  EXPECT_DOUBLE_EQ(first.throughput_factor, again.throughput_factor);
  // Keys explore both outcomes at p = 0.5.
  int fails = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    fails += injector.wan_attempt(seq, 1).fail ? 1 : 0;
  }
  EXPECT_GT(fails, 60);
  EXPECT_LT(fails, 140);
}

TEST(FaultInjector, DbDropKeyedByRegionHash) {
  FaultSpec spec;
  spec.enabled = true;
  spec.db_drop_prob = 0.5;
  const FaultInjector injector(spec);
  int va_drops = 0, wy_drops = 0, diff = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const bool va = injector.db_drop("VA", seq);
    const bool wy = injector.db_drop("WY", seq);
    va_drops += va;
    wy_drops += wy;
    diff += va != wy;
  }
  EXPECT_GT(va_drops, 60);
  EXPECT_LT(va_drops, 140);
  EXPECT_GT(wy_drops, 60);
  EXPECT_LT(wy_drops, 140);
  EXPECT_GT(diff, 0);  // regions have independent streams
}

TEST(FaultInjector, InvalidSpecRejected) {
  FaultSpec spec;
  spec.wan_failure_prob = 1.5;
  EXPECT_THROW(FaultInjector{spec}, Error);
  spec = FaultSpec{};
  spec.wan_degraded_factor = 0.0;
  EXPECT_THROW(FaultInjector{spec}, Error);
}

// ---------------------------------------------------------- checkpoint ----

TEST(Checkpoint, InactiveWithoutInterval) {
  CheckpointSpec spec;  // interval_ticks = 0
  EXPECT_FALSE(spec.active());
  EXPECT_EQ(spec.checkpoints_per_run(), 0u);
  EXPECT_DOUBLE_EQ(spec.overhead_hours(), 0.0);
  EXPECT_DOUBLE_EQ(spec.saved_hours(2.0, 1.5), 0.0);
}

TEST(Checkpoint, CountsAndOverhead) {
  CheckpointSpec spec;
  spec.interval_ticks = 100;
  spec.job_ticks = 365;
  spec.write_cost_s = 36.0;
  // Checkpoints after ticks 100, 200, 300 (none at/after the end).
  EXPECT_EQ(spec.checkpoints_per_run(), 3u);
  EXPECT_NEAR(spec.overhead_hours(), 3.0 * 36.0 / 3600.0, 1e-12);
  // A tick-365 job of 1 hour useful runtime: checkpoint period ~0.274h.
  EXPECT_NEAR(spec.period_hours(1.0), 100.0 / 365.0, 1e-12);
}

TEST(Checkpoint, SavedProgressIsFloorOfCompletedPeriods) {
  CheckpointSpec spec;
  spec.interval_ticks = 100;
  spec.job_ticks = 400;
  spec.write_cost_s = 0.0;  // pure floor semantics
  const double period = spec.period_hours(4.0);  // 1h per checkpoint period
  EXPECT_DOUBLE_EQ(period, 1.0);
  EXPECT_DOUBLE_EQ(spec.saved_hours(4.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(spec.saved_hours(4.0, 1.7), 1.0);
  EXPECT_DOUBLE_EQ(spec.saved_hours(4.0, 2.99), 2.0);
  // Never beyond the last checkpoint (3 checkpoints at 400/100 - 1).
  EXPECT_DOUBLE_EQ(spec.saved_hours(4.0, 100.0), 3.0);
}

// -------------------------------------------------------------- ledger ----

TEST(Ledger, CountsAndSummary) {
  ResilienceLedger ledger;
  ledger.record(FaultKind::kNodeCrash, 1.0, "node 3");
  ledger.record(FaultKind::kNodeCrash, 2.0, "node 9");
  ledger.record(FaultKind::kJobKilled, 2.0);
  ledger.record(FaultKind::kJobRequeued, 2.0);
  ledger.record(FaultKind::kWanFailure, 0.0);
  ledger.add_wasted_node_hours(12.5);
  ledger.add_retry_wait_seconds(7200.0);
  const ResilienceSummary summary = ledger.summary();
  EXPECT_EQ(summary.node_crashes, 2u);
  EXPECT_EQ(summary.jobs_killed, 1u);
  EXPECT_EQ(summary.jobs_requeued, 1u);
  EXPECT_EQ(summary.wan_failures, 1u);
  EXPECT_EQ(summary.db_drops, 0u);
  EXPECT_DOUBLE_EQ(summary.wasted_node_hours, 12.5);
  EXPECT_DOUBLE_EQ(summary.retry_wait_hours, 2.0);
  EXPECT_EQ(ledger.events().size(), 5u);
  EXPECT_STREQ(fault_kind_name(FaultKind::kDbReconnect), "db-reconnect");
}

// ------------------------------------------------------ DES with faults ---

std::vector<SimTask> small_tasks() {
  return make_workflow_tasks({"VA", "WY", "MD"}, 6, 4);
}

TEST(SlurmSimFaults, NullInjectorMatchesSeedPath) {
  const auto tasks = small_tasks();
  DesConfig plain;
  FaultSpec off;  // enabled = false
  const FaultInjector injector(off);
  DesConfig with_disabled = plain;
  with_disabled.faults = &injector;
  Rng rng_a(42), rng_b(42);
  const DesResult a = simulate_cluster(bridges_cluster(), tasks, plain, rng_a);
  const DesResult b =
      simulate_cluster(bridges_cluster(), tasks, with_disabled, rng_b);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].task_id, b.jobs[i].task_id);
    EXPECT_DOUBLE_EQ(a.jobs[i].start_hours, b.jobs[i].start_hours);
    EXPECT_DOUBLE_EQ(a.jobs[i].end_hours, b.jobs[i].end_hours);
  }
  EXPECT_DOUBLE_EQ(a.makespan_hours, b.makespan_hours);
  EXPECT_DOUBLE_EQ(a.busy_node_hours, b.busy_node_hours);
  EXPECT_EQ(b.jobs_requeued, 0u);
  EXPECT_DOUBLE_EQ(b.wasted_node_hours, 0.0);
}

/// Exact text of a double, so pins and comparisons are bit for bit.
std::string hex(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%a", value);
  return text;
}

/// Every scalar DesResult field as exact text.
std::string des_scalars(const DesResult& r) {
  return "unfinished=" + std::to_string(r.unfinished) +
         " makespan=" + hex(r.makespan_hours) +
         " utilization=" + hex(r.utilization) +
         " busy=" + hex(r.busy_node_hours) +
         " requeued=" + std::to_string(r.jobs_requeued) +
         " wasted=" + hex(r.wasted_node_hours) +
         " checkpoint=" + hex(r.checkpoint_node_hours);
}

std::string job_text(const JobRecord& job) {
  return std::to_string(job.task_id) + ' ' + hex(job.start_hours) + ' ' +
         hex(job.end_hours) + ' ' + std::to_string(job.nodes);
}

/// The calibration night's packed queue (15,300 tasks): long enough that
/// backfill, the window and out-of-start-order completions all occur.
std::vector<SimTask> calibration_queue() {
  const WorkflowDesign design = calibration_design();
  const std::vector<SimTask> tasks = make_workflow_tasks(
      design.regions, design.cells, design.replicates, design.cost_factor);
  const PackingPlan plan = pack_tasks(tasks, bridges_cluster().nodes,
                                      PackingPolicy::kFirstFitDecreasing);
  std::map<std::uint64_t, const SimTask*> by_id;
  for (const SimTask& task : tasks) by_id.emplace(task.id, &task);
  std::vector<SimTask> ordered;
  for (const PackingLevel& level : plan.levels) {
    for (std::uint64_t id : level.task_ids) ordered.push_back(*by_id.at(id));
  }
  return ordered;
}

TEST(SlurmSimFaults, ZeroRateInjectorMatchesNoInjector) {
  // An armed injector whose every rate is 0 schedules no outage, so the
  // one event loop must reproduce the no-injector night exactly: the
  // schedule, the job order and the last bit of utilization.
  const std::vector<SimTask> queue = calibration_queue();
  FaultSpec zero;
  zero.enabled = true;
  const FaultInjector injector(zero);
  DesConfig plain;
  plain.window_hours = bridges_cluster().window_hours;
  DesConfig armed = plain;
  armed.faults = &injector;
  // The nightly engine's DES stream at its default seed.
  const Rng des_rng = Rng(20200325).derive({0x444553ULL});
  Rng rng_a = des_rng, rng_b = des_rng;
  const DesResult a = simulate_cluster(bridges_cluster(), queue, plain, rng_a);
  const DesResult b = simulate_cluster(bridges_cluster(), queue, armed, rng_b);
  ASSERT_EQ(a.jobs.size(), queue.size());
  // The no-injector night itself, bit for bit: the fig9/table1 baselines
  // and every fault-free nightly report rest on this schedule.
  std::string order;
  for (const JobRecord& job : a.jobs) order += job_text(job) + '\n';
  EXPECT_EQ(hex(a.makespan_hours), "0x1.d113688e9d44dp+2");
  EXPECT_EQ(hex(a.utilization), "0x1.edf7349775076p-1");
  EXPECT_EQ(stable_label_hash(order), 8196433602778671114ULL);
  EXPECT_EQ(des_scalars(a), des_scalars(b));
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_EQ(job_text(a.jobs[i]), job_text(b.jobs[i])) << "job " << i;
  }
  // Completions did finish out of start order on this queue.
  EXPECT_FALSE(std::is_sorted(a.jobs.begin(), a.jobs.end(),
                              [](const JobRecord& x, const JobRecord& y) {
                                return x.end_hours < y.end_hours;
                              }));
}

TEST(SlurmSimFaults, CrashCheckpointSchedulePinned) {
  // The fault path's schedule, pinned: crashes on a small saturated
  // cluster kill checkpointing jobs, which resume from their last
  // checkpoint. Job set sorted by task id (start/end in hexfloat) and the
  // fault accounting; `jobs` order and busy-node-hours are not pinned.
  const auto tasks = make_workflow_tasks({"VA", "WY", "MD"}, 6, 4, 25.0);
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 11;
  spec.node_mtbf_hours = 30.0;
  spec.node_repair_hours = 0.5;
  const FaultInjector injector(spec);
  DesConfig config;
  config.faults = &injector;
  config.fault_horizon_hours = 500.0;
  config.checkpoint.interval_ticks = 30;
  config.checkpoint.job_ticks = 365;
  ClusterSpec cluster = bridges_cluster();
  cluster.nodes = 24;
  Rng rng(43);
  const DesResult result = simulate_cluster(cluster, tasks, config, rng);
  std::vector<JobRecord> jobs = result.jobs;
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord& x, const JobRecord& y) {
              return x.task_id < y.task_id;
            });
  std::string job_set;
  for (const JobRecord& job : jobs) job_set += job_text(job) + '\n';
  ASSERT_EQ(jobs.size(), tasks.size());
  EXPECT_EQ(stable_label_hash(job_set), 7547716219097112792ULL) << job_set;
  EXPECT_EQ(result.unfinished, 0u);
  EXPECT_EQ(result.jobs_requeued, 11u);
  EXPECT_EQ(hex(result.wasted_node_hours), "0x1.c20fa46d53166p+2");
  EXPECT_EQ(hex(result.checkpoint_node_hours), "0x1.6c4444444444ep+4");
  EXPECT_EQ(hex(result.makespan_hours), "0x1.61988e56e8e89p+4");
}

TEST(SlurmSimFaults, CrashesKillAndRequeueUntilDone) {
  // Long jobs on a small, saturated cluster: crashes must land on busy
  // nodes and the killed jobs must requeue and finish.
  const auto tasks = make_workflow_tasks({"VA", "WY", "MD"}, 6, 4, 25.0);
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 11;
  spec.node_mtbf_hours = 30.0;  // brutally unreliable: ~1 crash/node/30h
  spec.node_repair_hours = 0.5;
  const FaultInjector injector(spec);
  ResilienceLedger ledger;
  DesConfig config;
  config.faults = &injector;
  config.ledger = &ledger;
  config.fault_horizon_hours = 500.0;
  ClusterSpec cluster = bridges_cluster();
  cluster.nodes = 24;
  Rng rng(43);
  const DesResult result = simulate_cluster(cluster, tasks, config, rng);
  // No window: every job eventually completes despite the kills.
  EXPECT_EQ(result.jobs.size(), tasks.size());
  EXPECT_EQ(result.unfinished, 0u);
  EXPECT_GT(result.jobs_requeued, 0u);
  EXPECT_GT(result.wasted_node_hours, 0.0);
  EXPECT_EQ(ledger.count(FaultKind::kJobRequeued), result.jobs_requeued);
  EXPECT_GT(ledger.count(FaultKind::kNodeCrash), 0u);
  EXPECT_GE(ledger.count(FaultKind::kNodeCrash),
            ledger.count(FaultKind::kJobKilled));
}

TEST(SlurmSimFaults, DeterministicUnderFixedSeeds) {
  const auto tasks = small_tasks();
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 12;
  spec.node_mtbf_hours = 50.0;
  const FaultInjector injector(spec);
  auto run = [&] {
    DesConfig config;
    config.faults = &injector;
    Rng rng(44);
    return simulate_cluster(bridges_cluster(), tasks, config, rng);
  };
  const DesResult a = run();
  const DesResult b = run();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].task_id, b.jobs[i].task_id);
    EXPECT_DOUBLE_EQ(a.jobs[i].end_hours, b.jobs[i].end_hours);
  }
  EXPECT_DOUBLE_EQ(a.makespan_hours, b.makespan_hours);
  EXPECT_DOUBLE_EQ(a.wasted_node_hours, b.wasted_node_hours);
  EXPECT_EQ(a.jobs_requeued, b.jobs_requeued);
}

TEST(SlurmSimFaults, CheckpointingReducesWastedWork) {
  // Long jobs on unreliable hardware: requeue-from-checkpoint must waste
  // less execution than restart-from-scratch under the same faults.
  std::vector<SimTask> tasks;
  for (std::uint64_t i = 0; i < 40; ++i) {
    tasks.push_back(SimTask{i, "VA", static_cast<std::uint32_t>(i), 0, 4,
                            5.0, 28});
  }
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 13;
  spec.node_mtbf_hours = 60.0;
  spec.node_repair_hours = 0.5;
  const FaultInjector injector(spec);
  auto run = [&](std::uint32_t interval) {
    DesConfig config;
    config.faults = &injector;
    config.checkpoint.interval_ticks = interval;
    config.checkpoint.job_ticks = 365;
    config.checkpoint.write_cost_s = 30.0;
    config.fault_horizon_hours = 500.0;
    ClusterSpec cluster = bridges_cluster();
    cluster.nodes = 40;  // keep many jobs running long
    Rng rng(45);
    return simulate_cluster(cluster, tasks, config, rng);
  };
  const DesResult none = run(0);
  const DesResult frequent = run(12);
  EXPECT_EQ(none.jobs.size(), tasks.size());
  EXPECT_EQ(frequent.jobs.size(), tasks.size());
  EXPECT_GT(none.jobs_requeued, 0u);
  EXPECT_GT(none.wasted_node_hours, frequent.wasted_node_hours);
  // ...and the checkpointing run pays I/O overhead instead.
  EXPECT_GT(frequent.checkpoint_node_hours, 0.0);
  EXPECT_DOUBLE_EQ(none.checkpoint_node_hours, 0.0);
}

TEST(SlurmSimFaults, WindowStillCutsOffLateJobs) {
  ClusterSpec tiny = bridges_cluster();
  tiny.nodes = 12;
  std::vector<std::string> regions;
  for (const StateInfo& s : us_states()) regions.push_back(s.abbrev);
  const auto tasks = make_workflow_tasks(regions, 12, 15);
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 14;
  spec.node_mtbf_hours = 100.0;
  const FaultInjector injector(spec);
  DesConfig config;
  config.faults = &injector;
  config.window_hours = 10.0;
  Rng rng(46);
  const DesResult result = simulate_cluster(tiny, tasks, config, rng);
  EXPECT_GT(result.unfinished, 0u);
  EXPECT_LT(result.jobs.size(), tasks.size());
}

// --------------------------------------------------- transfer + retries ---

TEST(TransferResilience, ZeroByteTransferPaysOverhead) {
  GlobusTransfer wan;
  const double seconds = wan.transfer("empty manifest", 0, true);
  EXPECT_DOUBLE_EQ(seconds, WanLinkSpec{}.per_transfer_overhead_s);
  ASSERT_EQ(wan.ledger().size(), 1u);
  EXPECT_EQ(wan.ledger()[0].attempts, 1u);
}

TEST(TransferResilience, PerDirectionSecondTotals) {
  GlobusTransfer wan;
  const double out_s = wan.transfer("configs", 1'000'000'000, true);
  const double back_s = wan.transfer("summaries", 4'000'000'000, false);
  const double out2_s = wan.transfer("more configs", 500, true);
  EXPECT_DOUBLE_EQ(wan.total_seconds_to_remote(), out_s + out2_s);
  EXPECT_DOUBLE_EQ(wan.total_seconds_to_home(), back_s);
  EXPECT_DOUBLE_EQ(wan.total_seconds(),
                   wan.total_seconds_to_remote() + wan.total_seconds_to_home());
}

TEST(TransferResilience, DisabledInjectorMatchesSeedArithmetic) {
  FaultSpec off;
  const FaultInjector injector(off);
  GlobusTransfer plain;
  GlobusTransfer armed;
  armed.enable_resilience(&injector, RetryPolicy{});
  const double a = plain.transfer("x", 123'456'789, true);
  const double b = armed.transfer("x", 123'456'789, true);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(TransferResilience, ZeroRateInjectorMatchesNoInjector) {
  FaultSpec zero;
  zero.enabled = true;
  const FaultInjector injector(zero);
  ResilienceLedger ledger;
  GlobusTransfer plain;
  GlobusTransfer armed;
  armed.enable_resilience(&injector, RetryPolicy{}, &ledger);
  for (const std::uint64_t bytes :
       {std::uint64_t{0}, std::uint64_t{123'456'789},
        std::uint64_t{8'700'000'000}}) {
    const double a = plain.transfer("x", bytes, bytes % 2 == 0);
    const double b = armed.transfer("x", bytes, bytes % 2 == 0);
    EXPECT_EQ(hex(a), hex(b)) << bytes << " bytes";
  }
  ASSERT_EQ(plain.ledger().size(), armed.ledger().size());
  for (std::size_t i = 0; i < plain.ledger().size(); ++i) {
    EXPECT_EQ(armed.ledger()[i].attempts, 1u);
    EXPECT_EQ(hex(armed.ledger()[i].retry_wait_s), hex(0.0));
  }
  EXPECT_EQ(hex(plain.total_seconds()), hex(armed.total_seconds()));
  EXPECT_EQ(ledger.summary(), ResilienceSummary{});
}

TEST(TransferResilience, FailuresRetryWithBackoffAndLedger) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 21;
  spec.wan_failure_prob = 0.6;  // most attempts fail; retries kick in
  const FaultInjector injector(spec);
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_delay_s = 10.0;
  ResilienceLedger ledger;
  GlobusTransfer wan;
  wan.enable_resilience(&injector, policy, &ledger);
  double plain_total = 0.0, armed_total = 0.0;
  GlobusTransfer plain;
  for (int i = 0; i < 20; ++i) {
    const std::string name = "transfer " + std::to_string(i);
    armed_total += wan.transfer(name, 50'000'000, i % 2 == 0);
    plain_total += plain.transfer(name, 50'000'000, i % 2 == 0);
  }
  // Retries cost time: overhead of failed attempts + backoff waits.
  EXPECT_GT(armed_total, plain_total);
  EXPECT_GT(ledger.count(FaultKind::kWanFailure), 0u);
  EXPECT_EQ(ledger.count(FaultKind::kWanRetry),
            ledger.count(FaultKind::kWanFailure));
  std::uint32_t max_attempts_seen = 0;
  for (const TransferRecord& record : wan.ledger()) {
    max_attempts_seen = std::max(max_attempts_seen, record.attempts);
  }
  EXPECT_GT(max_attempts_seen, 1u);
  // Volumes are unchanged by retries.
  EXPECT_EQ(wan.total_bytes_to_remote(), plain.total_bytes_to_remote());
  EXPECT_EQ(wan.total_bytes_to_home(), plain.total_bytes_to_home());
}

TEST(TransferResilience, ExhaustedRetriesThrow) {
  FaultSpec spec;
  spec.enabled = true;
  spec.wan_failure_prob = 1.0;  // nothing ever succeeds
  const FaultInjector injector(spec);
  RetryPolicy policy;
  policy.max_attempts = 3;
  GlobusTransfer wan;
  wan.enable_resilience(&injector, policy);
  EXPECT_THROW(wan.transfer("doomed", 1000, true), Error);
}

TEST(TransferResilience, DegradedThroughputSlowsTransfer) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 22;
  spec.wan_degraded_prob = 1.0;  // every attempt degraded
  spec.wan_degraded_factor = 0.25;
  const FaultInjector injector(spec);
  GlobusTransfer armed;
  armed.enable_resilience(&injector, RetryPolicy{});
  GlobusTransfer plain;
  const std::uint64_t bytes = 10'000'000'000ULL;
  const double degraded = armed.transfer("big", bytes, true);
  const double nominal = plain.transfer("big", bytes, true);
  EXPECT_NEAR(degraded - WanLinkSpec{}.per_transfer_overhead_s,
              4.0 * (nominal - WanLinkSpec{}.per_transfer_overhead_s), 1e-6);
}

// ----------------------------------------------------- person-db drops ----

const Population& small_population() {
  static const Population population = [] {
    SynthPopConfig config;
    config.region = "WY";
    config.scale = 1.0 / 4000.0;
    config.seed = 99;
    return generate_region(config).population;
  }();
  return population;
}

TEST(PersonDbResilience, DisabledInjectorBehavesLikeConnect) {
  PersonDbServer server(small_population(), 4);
  FaultSpec off;
  const FaultInjector injector(off);
  const ResilientConnectResult result =
      server.connect_resilient(injector, RetryPolicy{});
  EXPECT_TRUE(result.connection.has_value());
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_DOUBLE_EQ(result.wait_s, 0.0);
}

TEST(PersonDbResilience, ZeroRateInjectorBehavesLikeConnect) {
  PersonDbServer server(small_population(), 4);
  FaultSpec zero;
  zero.enabled = true;
  const FaultInjector injector(zero);
  ResilienceLedger ledger;
  for (int i = 0; i < 3; ++i) {
    const ResilientConnectResult result =
        server.connect_resilient(injector, RetryPolicy{}, &ledger);
    EXPECT_TRUE(result.connection.has_value());
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_EQ(hex(result.wait_s), hex(0.0));
  }
  EXPECT_EQ(ledger.summary(), ResilienceSummary{});
}

TEST(PersonDbResilience, DropsRetryThenReconnect) {
  PersonDbServer server(small_population(), 8);
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 31;
  spec.db_drop_prob = 0.5;
  const FaultInjector injector(spec);
  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.base_delay_s = 1.0;
  ResilienceLedger ledger;
  bool saw_retry = false;
  for (int i = 0; i < 6; ++i) {
    const ResilientConnectResult result =
        server.connect_resilient(injector, policy, &ledger);
    ASSERT_TRUE(result.connection.has_value()) << "connect " << i;
    if (result.attempts > 1) {
      saw_retry = true;
      EXPECT_GT(result.wait_s, 0.0);
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_GT(ledger.count(FaultKind::kDbDrop), 0u);
  EXPECT_GT(ledger.count(FaultKind::kDbReconnect), 0u);
}

TEST(PersonDbResilience, PermanentDropsGiveUp) {
  PersonDbServer server(small_population(), 4);
  FaultSpec spec;
  spec.enabled = true;
  spec.db_drop_prob = 1.0;
  const FaultInjector injector(spec);
  RetryPolicy policy;
  policy.max_attempts = 4;
  const ResilientConnectResult result =
      server.connect_resilient(injector, policy);
  EXPECT_FALSE(result.connection.has_value());
  EXPECT_EQ(result.attempts, 4u);
}

// --------------------------------------- nightly workflow determinism ----

NightlyConfig small_nightly_config() {
  NightlyConfig config;
  config.scale = 1.0 / 8000.0;
  config.sample_executions = 2;
  config.sample_regions = {"WY", "VT"};
  config.executed_days = 20;
  config.deterministic_timing = true;
  return config;
}

WorkflowDesign small_design() {
  WorkflowDesign design = economic_design();
  design.regions = {"WY", "VT", "MD"};
  return design;
}

FaultSpec paper_plausible_faults(std::uint64_t seed) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = seed;
  spec.node_mtbf_hours = 30.0 * 24.0;  // 30-day MTBF floor from the issue
  spec.node_repair_hours = 2.0;
  spec.wan_failure_prob = 0.02;
  spec.wan_degraded_prob = 0.05;
  spec.db_drop_prob = 0.1;
  return spec;
}

TEST(NightlyResilience, FaultFreeRunsAreIdentical) {
  const WorkflowDesign design = small_design();
  NightlyWorkflow a(small_nightly_config());
  NightlyWorkflow b(small_nightly_config());
  const WorkflowReport report_a = a.run(design);
  const WorkflowReport report_b = b.run(design);
  EXPECT_EQ(report_a, report_b);
  // And the resilience block is all-zero.
  EXPECT_EQ(report_a.resilience, ResilienceSummary{});
}

TEST(NightlyResilience, ZeroRateInjectorMatchesDefaultBytes) {
  // Arming the fault model with every rate at 0 must not move one byte of
  // the report: the DES, the WAN and the person DBs all run their one
  // path with nothing injected.
  const WorkflowDesign design = small_design();
  NightlyConfig armed = small_nightly_config();
  armed.faults.enabled = true;
  NightlyWorkflow a(small_nightly_config());
  NightlyWorkflow b(armed);
  EXPECT_EQ(serialize(a.run(design)), serialize(b.run(design)));
}

TEST(NightlyResilience, FaultyRunsAreIdenticalUnderSameSeed) {
  const WorkflowDesign design = small_design();
  NightlyConfig config = small_nightly_config();
  config.faults = paper_plausible_faults(777);
  config.checkpoint.interval_ticks = 60;
  NightlyWorkflow a(config);
  NightlyWorkflow b(config);
  const WorkflowReport report_a = a.run(design);
  const WorkflowReport report_b = b.run(design);
  EXPECT_EQ(report_a, report_b);
}

TEST(NightlyResilience, FaultSeedChangesOnlyFaultDerivedFields) {
  const WorkflowDesign design = small_design();
  NightlyConfig config = small_nightly_config();
  config.faults = paper_plausible_faults(1001);
  NightlyWorkflow a(config);
  config.faults.seed = 2002;  // only the fault seed differs
  NightlyWorkflow b(config);
  const WorkflowReport report_a = a.run(design);
  const WorkflowReport report_b = b.run(design);
  // Work content is identical...
  EXPECT_EQ(report_a.planned_simulations, report_b.planned_simulations);
  EXPECT_EQ(report_a.executed_simulations, report_b.executed_simulations);
  EXPECT_EQ(report_a.config_bytes, report_b.config_bytes);
  EXPECT_EQ(report_a.raw_bytes_measured, report_b.raw_bytes_measured);
  EXPECT_EQ(report_a.summary_bytes_measured, report_b.summary_bytes_measured);
  EXPECT_DOUBLE_EQ(report_a.raw_bytes_full_scale,
                   report_b.raw_bytes_full_scale);
  EXPECT_EQ(report_a.bytes_to_remote, report_b.bytes_to_remote);
  EXPECT_EQ(report_a.bytes_to_home, report_b.bytes_to_home);
  EXPECT_EQ(report_a.db_queries_served, report_b.db_queries_served);
  // ...while the fault weather differs.
  EXPECT_NE(report_a.resilience, report_b.resilience);
}

TEST(NightlyResilience, PaperPlausibleFaultsStillMakeTheDeadline) {
  const WorkflowDesign design = small_design();
  NightlyConfig config = small_nightly_config();
  config.faults = paper_plausible_faults(4242);
  config.checkpoint.interval_ticks = 60;
  NightlyWorkflow workflow(config);
  const WorkflowReport report = workflow.run(design);
  // The (small) night completes: every job ran, deadline met via
  // retries/requeues, and the report exposes the resilience accounting.
  EXPECT_EQ(report.unfinished_jobs, 0u);
  EXPECT_TRUE(report.deadline_met);
  EXPECT_GT(report.deadline_slack_hours, 0.0);
  EXPECT_EQ(report.executed_simulations, 2u);
  EXPECT_GT(report.db_queries_served, 0u);
}

}  // namespace
}  // namespace epi
