// The deterministic task-pool executor (src/exec/) and its contract with
// the simulation farm: results in submission-index order, exceptions
// rethrown at the first failing index, jobs=1 identical to the serial
// seed path, and parallel farm output byte-identical to serial at any
// worker count — with and without fault injection.
#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "resilience/ledger.hpp"
#include "util/error.hpp"
#include "workflow/calibration_cycle.hpp"
#include "workflow/designs.hpp"
#include "workflow/nightly.hpp"

namespace epi {
namespace {

exec::ExecConfig with_jobs(std::size_t jobs) {
  exec::ExecConfig config;
  config.jobs = jobs;
  return config;
}

// ------------------------------------------------------------ plumbing ---

TEST(Executor, JobsFromEnvParsing) {
  ::unsetenv("EPI_JOBS");
  EXPECT_EQ(exec::jobs_from_env(), 1u);
  ::setenv("EPI_JOBS", "4", 1);
  EXPECT_EQ(exec::jobs_from_env(), 4u);
  ::setenv("EPI_JOBS", "", 1);
  EXPECT_EQ(exec::jobs_from_env(), 1u);
  // Malformed values fail loudly instead of silently running serial: a
  // farm that quietly drops to one worker blows the 8am window.
  for (const char* bad : {"0", "-2", "banana", "4x", " 4", "+4"}) {
    ::setenv("EPI_JOBS", bad, 1);
    EXPECT_THROW((void)exec::jobs_from_env(), Error) << "EPI_JOBS=" << bad;
  }
  ::setenv("EPI_JOBS", "8", 1);
  EXPECT_EQ(exec::resolve_jobs(0), 8u);
  EXPECT_EQ(exec::resolve_jobs(3), 3u);  // explicit config wins
  ::unsetenv("EPI_JOBS");
}

TEST(Executor, EffectiveWorkersCaps) {
  // Item count caps the pool: no idle workers for a 2-task farm.
  EXPECT_EQ(exec::effective_workers(8, 2), 2u);
  EXPECT_EQ(exec::effective_workers(0, 100), 1u);
  // An explicit jobs request is honored even above the core count
  // (oversubscription only costs time-slicing).
  EXPECT_EQ(exec::effective_workers(8, 100), 8u);
}

// ------------------------------------------------- ordering & identity ---

TEST(Executor, ResultsInSubmissionOrderDespiteCompletionOrder) {
  // Early tasks sleep longest, so completion order is roughly reversed;
  // results must come back in submission order anyway.
  const std::size_t n = 48;
  const auto results = exec::parallel_index_map(
      n,
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds((n - i) * 40));
        return i * 3 + 1;
      },
      with_jobs(8));
  ASSERT_EQ(results.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[i], i * 3 + 1);
  }
}

TEST(Executor, ParallelMatchesSerialExactly) {
  auto task = [](std::size_t i) {
    // A deterministic per-index value with some arithmetic depth.
    double x = static_cast<double>(i) + 0.5;
    for (int k = 0; k < 1000; ++k) x = x * 1.0000001 + 1.0 / (x + 1.0);
    return x;
  };
  const auto serial = exec::parallel_index_map(256, task, with_jobs(1));
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    const auto parallel = exec::parallel_index_map(256, task, with_jobs(jobs));
    EXPECT_EQ(serial, parallel) << "jobs=" << jobs;
  }
}

TEST(Executor, VectorOverloadPassesItemAndIndex) {
  const std::vector<std::string> items = {"a", "b", "c", "d", "e"};
  const auto tagged = exec::parallel_map(
      items,
      [](const std::string& item, std::size_t i) {
        return item + std::to_string(i);
      },
      with_jobs(4));
  EXPECT_EQ(tagged,
            (std::vector<std::string>{"a0", "b1", "c2", "d3", "e4"}));
  const auto plain = exec::parallel_map(
      items, [](const std::string& item) { return item + "!"; }, with_jobs(2));
  EXPECT_EQ(plain.size(), items.size());
  EXPECT_EQ(plain[4], "e!");
}

// ------------------------------------------------ exception propagation ---

TEST(Executor, RethrowsAtFirstFailingIndex) {
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    auto poisoned = [&](std::size_t i) -> int {
      if (i == 5) {
        // The earlier failure finishes *later* than the one at index 11,
        // so the pool must pick the failure by index, not by completion.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw Error("poisoned task 5");
      }
      if (i == 11) throw Error("poisoned task 11");
      return static_cast<int>(i);
    };
    try {
      (void)exec::parallel_index_map(32, poisoned, with_jobs(jobs));
      FAIL() << "expected a rethrow at jobs=" << jobs;
    } catch (const Error& error) {
      EXPECT_STREQ(error.what(), "poisoned task 5") << "jobs=" << jobs;
    }
  }
}

TEST(Executor, SerialPathPropagatesUnwrapped) {
  // jobs=1 is the seed code path: the exception escapes the task loop
  // directly, before any later task runs.
  std::atomic<int> ran{0};
  auto poisoned = [&](std::size_t i) -> int {
    if (i == 2) throw ConfigError("bad config");
    ++ran;
    return 0;
  };
  EXPECT_THROW(
      { (void)exec::parallel_index_map(10, poisoned, with_jobs(1)); },
      ConfigError);
  EXPECT_EQ(ran.load(), 2);
}

// ------------------------------------------------------- observability ---

TEST(Executor, RecordsCountersGaugeAndSpans) {
  obs::Session session({"", /*deterministic_timing=*/true});
  exec::ExecConfig config = with_jobs(4);
  config.label = "unit";
  config.obs.trace = &session.trace();
  config.obs.metrics = &session.metrics();
  config.obs.deterministic_timing = true;
  (void)exec::parallel_index_map(
      10, [](std::size_t i) { return i; }, config);
  EXPECT_EQ(session.metrics().counter("exec.tasks"), 10u);
  EXPECT_DOUBLE_EQ(session.metrics().gauge("exec.workers"), 4.0);
  EXPECT_DOUBLE_EQ(session.metrics().gauge("exec.queue_depth"), 10.0);
  // Deterministic sessions suppress the schedule-dependent steal counter.
  EXPECT_EQ(session.metrics().counter("exec.steal"), 0u);
  // One span per task on per-worker lanes of the "exec" process, plus a
  // submit->start->finish flow chain (3 events) per task.
  EXPECT_EQ(session.trace().event_count(), 40u);

  // Turning flows off leaves exactly the task spans.
  obs::Session bare({"", /*deterministic_timing=*/true});
  config.obs.trace = &bare.trace();
  config.obs.metrics = nullptr;
  config.obs.flow = false;
  (void)exec::parallel_index_map(
      10, [](std::size_t i) { return i; }, config);
  EXPECT_EQ(bare.trace().event_count(), 10u);
}

TEST(Executor, DeterministicTracesAreByteIdenticalAcrossRuns) {
  auto traced_run = [] {
    obs::Session session({"", /*deterministic_timing=*/true});
    exec::ExecConfig config = with_jobs(4);
    config.label = "det";
    config.obs.trace = &session.trace();
    config.obs.metrics = &session.metrics();
    config.obs.deterministic_timing = true;
    (void)exec::parallel_index_map(
        17,
        [](std::size_t i) {
          std::this_thread::sleep_for(std::chrono::microseconds(i * 7));
          return i;
        },
        config);
    return session.trace().to_json().dump() +
           session.metrics().snapshot().dump();
  };
  EXPECT_EQ(traced_run(), traced_run());
}

// --------------------------------------------------------- ledger merge ---

TEST(Executor, LedgerMergeAppendsInTaskIndexOrder) {
  ResilienceLedger merged;
  merged.record(FaultKind::kNodeCrash, 1.0, "pre-existing");
  std::vector<ResilienceLedger> locals(3);
  locals[0].record(FaultKind::kSimRetry, 0.0, "task 0");
  locals[1].add_retry_wait_seconds(7200.0);
  locals[2].record(FaultKind::kSimRetry, 0.0, "task 2a");
  locals[2].record(FaultKind::kDbDrop, 0.5, "task 2b");
  for (const ResilienceLedger& local : locals) merged.merge(local);
  ASSERT_EQ(merged.events().size(), 4u);
  EXPECT_EQ(merged.events()[0].detail, "pre-existing");
  EXPECT_EQ(merged.events()[1].detail, "task 0");
  EXPECT_EQ(merged.events()[2].detail, "task 2a");
  EXPECT_EQ(merged.events()[3].detail, "task 2b");
  EXPECT_DOUBLE_EQ(merged.summary().retry_wait_hours, 2.0);
  EXPECT_EQ(merged.summary().sim_retries, 2u);
}

// ----------------------------------------------- farm byte-identity -------

CalibrationCycleConfig tiny_cycle_config() {
  CalibrationCycleConfig config;
  config.region = "VT";
  config.scale = 1.0 / 400.0;
  config.seed = 20200411;
  config.prior_configs = 8;
  config.posterior_configs = 20;
  config.calibration_days = 40;
  config.horizon_days = 14;
  config.prediction_runs = 4;
  config.mcmc.samples = 300;
  config.mcmc.burn_in = 200;
  return config;
}

TEST(FarmIdentity, CycleByteIdenticalAcrossWorkerCounts) {
  CalibrationCycleConfig config = tiny_cycle_config();
  config.jobs = 1;
  const std::string serial = serialize(run_calibration_cycle(config));
  EXPECT_GT(serial.size(), 1000u);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    config.jobs = jobs;
    EXPECT_EQ(serial, serialize(run_calibration_cycle(config)))
        << "jobs=" << jobs;
  }
}

TEST(FarmIdentity, CycleByteIdenticalUnderFaultInjection) {
  // The per-task resilience ledgers must merge in task-index order, so a
  // faulty farm reports the same events no matter the completion order.
  CalibrationCycleConfig config = tiny_cycle_config();
  config.faults.enabled = true;
  config.faults.sim_failure_prob = 0.3;
  config.jobs = 1;
  const CalibrationCycleResult serial = run_calibration_cycle(config);
  EXPECT_GT(serial.resilience.sim_retries, 0u);  // the weather actually hit
  const std::string serial_dump = serialize(serial);
  config.jobs = 4;
  EXPECT_EQ(serial_dump, serialize(run_calibration_cycle(config)));
}

TEST(FarmIdentity, NightlyReportByteIdenticalAcrossWorkerCounts) {
  WorkflowDesign design = economic_design();
  design.regions = {"WY", "VT"};
  auto run_with_jobs = [&](std::size_t jobs) {
    NightlyConfig config;
    config.scale = 1.0 / 8000.0;
    config.sample_executions = 4;
    config.sample_regions = design.regions;
    config.executed_days = 30;
    config.deterministic_timing = true;
    config.jobs = jobs;
    NightlyWorkflow workflow(config);
    return workflow.run(design);
  };
  const WorkflowReport serial = run_with_jobs(1);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    EXPECT_EQ(serial, run_with_jobs(jobs)) << "jobs=" << jobs;
  }
}

TEST(FarmIdentity, NightlyReportByteIdenticalUnderFaultInjection) {
  WorkflowDesign design = economic_design();
  design.regions = {"WY", "VT"};
  auto run_with_jobs = [&](std::size_t jobs) {
    NightlyConfig config;
    config.scale = 1.0 / 8000.0;
    config.sample_executions = 4;
    config.sample_regions = design.regions;
    config.executed_days = 30;
    config.deterministic_timing = true;
    config.jobs = jobs;
    config.faults.enabled = true;
    config.faults.seed = 99;
    config.faults.node_mtbf_hours = 30.0 * 24.0;
    config.faults.wan_failure_prob = 0.02;
    config.faults.db_drop_prob = 0.2;
    config.checkpoint.interval_ticks = 60;
    NightlyWorkflow workflow(config);
    return workflow.run(design);
  };
  const WorkflowReport serial = run_with_jobs(1);
  const WorkflowReport parallel = run_with_jobs(4);
  EXPECT_EQ(serial, parallel);
  // The faulty weather actually exercised the resilience path.
  EXPECT_NE(serial.resilience, ResilienceSummary{});
}

}  // namespace
}  // namespace epi
