// Observability layer tests: trace recorder structure, metrics bucketing,
// dual-clock determinism, the no-perturbation guarantee (tracing on must
// not change the WorkflowReport), golden-file validation of an emitted
// Chrome trace, and the logging satellite (EPI_LOG_LEVEL parser + sink).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "epitrace/epitrace.hpp"
#include "exec/executor.hpp"
#include "mpilite/comm.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"
#include "resilience/fault_injector.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "workflow/nightly.hpp"

namespace epi {
namespace {

using obs::MetricsRegistry;
using obs::TraceArgs;
using obs::TraceRecorder;

std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const auto& error : errors) out += error + "\n";
  return out;
}

// Counts non-metadata events in `doc` whose "cat" equals `category`.
std::size_t count_category(const Json& doc, const std::string& category) {
  std::size_t n = 0;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.contains("cat") && event.at("cat").as_string() == category) ++n;
  }
  return n;
}

// ----------------------------------------------------- trace recorder ----

TEST(TraceRecorder, NestedSpansExportAsValidChromeTrace) {
  TraceRecorder trace(true);
  const std::uint32_t pid = trace.process("remote");
  trace.thread_name(pid, 0, "workflow");
  trace.begin(pid, 0, "outer", "phase", 0.0);
  trace.begin(pid, 0, "inner", "phase", 0.5);
  trace.end(pid, 0, 1.0);
  trace.end(pid, 0, 2.0);
  trace.complete(pid, 1, "task 7", "job", 0.25, 0.75);
  trace.instant(pid, 0, "milestone", "config-gen", 1.5);
  trace.counter(pid, "slurm.nodes", 1.0, TraceArgs{{"busy", Json(3.0)}});

  const obs::TraceCheckResult result = obs::check_trace_json(trace.to_json());
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.spans, 3u);  // two B/E pairs + one X
  EXPECT_EQ(result.instants, 1u);
  EXPECT_EQ(result.counters, 1u);
  EXPECT_EQ(result.processes, 1u);
  EXPECT_EQ(trace.event_count(), 7u);
}

TEST(TraceRecorder, UnmatchedSpansFailValidation) {
  TraceRecorder stray_end(true);
  const std::uint32_t pid = stray_end.process("p");
  stray_end.end(pid, 0, 1.0);
  EXPECT_FALSE(obs::check_trace_json(stray_end.to_json()).ok);

  TraceRecorder left_open(true);
  const std::uint32_t pid2 = left_open.process("p");
  left_open.begin(pid2, 0, "never closed", "phase", 0.0);
  EXPECT_FALSE(obs::check_trace_json(left_open.to_json()).ok);
}

TEST(TraceRecorder, OutOfOrderEmissionIsSortedMonotone) {
  // Job spans are emitted at completion time, so raw emission order is not
  // timestamp order; the exporter must sort.
  TraceRecorder trace(true);
  const std::uint32_t pid = trace.process("remote");
  trace.complete(pid, 1, "late", "job", 5.0, 1.0);
  trace.complete(pid, 1, "early", "job", 1.0, 1.0);

  const Json doc = trace.to_json();
  const obs::TraceCheckResult result = obs::check_trace_json(doc);
  EXPECT_TRUE(result.ok) << joined(result.errors);
  std::vector<std::string> names;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() == "X") names.push_back(event.at("name").as_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"early", "late"}));
}

TEST(TraceRecorder, DualClockIsZeroedUnderDeterministicTiming) {
  TraceRecorder det(true);
  EXPECT_EQ(det.wall_seconds(), 0.0);
  det.instant(det.process("p"), 0, "x", "c", 0.0);
  const Json doc = det.to_json();
  bool saw_instant = false;
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "i") continue;
    saw_instant = true;
    EXPECT_EQ(event.at("args").at("wall_s").as_double(), 0.0);
  }
  EXPECT_TRUE(saw_instant);

  const TraceRecorder live(false);
  EXPECT_GE(live.wall_seconds(), 0.0);
}

// -------------------------------------------------------- flow events ----

TEST(TraceFlow, ChainsExportAndValidate) {
  TraceRecorder trace(true);
  const std::uint32_t pid = trace.process("p");
  trace.flow_start(pid, 0, "send", "mpilite", 0.0, "msg:0->1");
  trace.flow_step(pid, 1, "hop", "mpilite", 0.5, "msg:0->1");
  trace.flow_end(pid, 1, "recv", "mpilite", 1.0, "msg:0->1");

  const Json doc = trace.to_json();
  const obs::TraceCheckResult result = obs::check_trace_json(doc);
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.flows, 1u);
  for (const Json& event : doc.at("traceEvents").as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    EXPECT_EQ(event.at("id").as_string(), "msg:0->1");
    if (ph == "f") EXPECT_EQ(event.at("bp").as_string(), "e");
  }
}

TEST(TraceFlow, ValidationCatchesMisuse) {
  // Dangling start: the chain never ends.
  TraceRecorder dangling(true);
  const std::uint32_t p1 = dangling.process("p");
  dangling.flow_start(p1, 0, "send", "c", 0.0, "x");
  EXPECT_FALSE(obs::check_trace_json(dangling.to_json()).ok);

  // End without a start.
  TraceRecorder orphan(true);
  const std::uint32_t p2 = orphan.process("p");
  orphan.flow_end(p2, 0, "recv", "c", 1.0, "y");
  EXPECT_FALSE(obs::check_trace_json(orphan.to_json()).ok);

  // Time running backwards along a chain (a cyclic happens-before edge).
  TraceRecorder backwards(true);
  const std::uint32_t p3 = backwards.process("p");
  backwards.flow_start(p3, 0, "send", "c", 2.0, "z");
  backwards.flow_end(p3, 1, "recv", "c", 1.0, "z");
  EXPECT_FALSE(obs::check_trace_json(backwards.to_json()).ok);

  // Closing a chain frees its id for reuse.
  TraceRecorder reuse(true);
  const std::uint32_t p4 = reuse.process("p");
  reuse.flow_start(p4, 0, "send", "c", 0.0, "r");
  reuse.flow_end(p4, 1, "recv", "c", 1.0, "r");
  reuse.flow_start(p4, 0, "send", "c", 2.0, "r");
  reuse.flow_end(p4, 1, "recv", "c", 3.0, "r");
  const obs::TraceCheckResult result = obs::check_trace_json(reuse.to_json());
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.flows, 2u);
}

// ---------------------------------------------------- metrics registry ----

TEST(MetricsRegistry, CountersGaugesAndHighWater) {
  MetricsRegistry metrics;
  metrics.add("c");
  metrics.add("c", 4);
  EXPECT_EQ(metrics.counter("c"), 5u);
  EXPECT_EQ(metrics.counter("missing"), 0u);

  metrics.set("g", 1.5);
  metrics.set("g", 0.5);
  EXPECT_DOUBLE_EQ(metrics.gauge("g"), 0.5);
  metrics.set_max("peak", 2.0);
  metrics.set_max("peak", 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("peak"), 2.0);
}

TEST(MetricsRegistry, HistogramBucketsByUpperBound) {
  MetricsRegistry metrics;
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  metrics.observe("h", 0.5, bounds);   // <= 1.0
  metrics.observe("h", 1.0, bounds);   // on the bound: still <= 1.0
  metrics.observe("h", 3.0, bounds);   // <= 4.0
  metrics.observe("h", 100.0, bounds); // overflow
  EXPECT_EQ(metrics.histogram_count("h"), 4u);

  const Json snapshot = metrics.snapshot();
  const obs::MetricsCheckResult result = obs::check_metrics_json(snapshot);
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.histograms, 1u);

  const JsonArray& buckets =
      snapshot.at("histograms").at("h").at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(buckets[0].at("count").as_double(), 2.0);
  EXPECT_EQ(buckets[1].at("count").as_double(), 0.0);
  EXPECT_EQ(buckets[2].at("count").as_double(), 1.0);
  EXPECT_EQ(buckets[3].at("count").as_double(), 1.0);
  EXPECT_EQ(buckets[3].at("le").as_string(), "+Inf");
  EXPECT_DOUBLE_EQ(snapshot.at("histograms").at("h").at("sum").as_double(),
                   104.5);
}

TEST(MetricsRegistry, DefaultBoundsKickInWithoutExplicitOnes) {
  MetricsRegistry metrics;
  metrics.observe("latency_s", 0.01);
  metrics.observe("latency_s", 2.5);
  EXPECT_EQ(metrics.histogram_count("latency_s"), 2u);
  EXPECT_TRUE(obs::check_metrics_json(metrics.snapshot()).ok);
}

TEST(MetricsRegistry, HistogramTailsAndPercentiles) {
  MetricsRegistry metrics;
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  metrics.observe("h", 0.5, bounds);  // underflow (below the first bound)
  metrics.observe("h", 1.5, bounds);
  metrics.observe("h", 3.0, bounds);
  metrics.observe("h", 9.0, bounds);  // overflow (+Inf bucket)

  const Json snapshot = metrics.snapshot();
  EXPECT_TRUE(obs::check_metrics_json(snapshot).ok);
  const Json& h = snapshot.at("histograms").at("h");
  EXPECT_EQ(h.at("underflow").as_double(), 1.0);
  EXPECT_EQ(h.at("overflow").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("min").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(h.at("max").as_double(), 9.0);
  // Quantile estimate: the upper bound of the bucket holding the rank,
  // clamped to the observed max (so the +Inf bucket reports finitely).
  EXPECT_DOUBLE_EQ(h.at("p50").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(h.at("p95").as_double(), 9.0);
  EXPECT_DOUBLE_EQ(h.at("p99").as_double(), 9.0);

  // Single observation: every percentile is the exact observed value.
  metrics.observe("one", 5.0, bounds);
  const Json again = metrics.snapshot();
  const Json& one = again.at("histograms").at("one");
  EXPECT_DOUBLE_EQ(one.at("p50").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(one.at("p99").as_double(), 5.0);
}

TEST(MetricsRegistry, MergeStateRejectsCorruptBlobs) {
  MetricsRegistry child;
  child.add("c", 3);
  child.observe("h", 2.0, {1.0, 4.0});
  const std::vector<std::byte> blob = child.serialize_state();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    MetricsRegistry parent;
    const auto end = blob.begin() + static_cast<std::ptrdiff_t>(cut);
    const std::vector<std::byte> part(blob.begin(), end);
    EXPECT_THROW(parent.merge_state(part), Error) << "cut at " << cut;
  }
  // A histogram with one bucket fewer than its bounds imply: merging it
  // into a matching one would read past its counts.
  ByteWriter out;
  out.u64(0);  // counters
  out.u64(0);  // gauges
  out.u64(1);  // histograms
  out.str("h");
  out.u64(2);
  out.f64(1.0);
  out.f64(4.0);
  out.u64(2);  // buckets: bounds + 1 = 3 expected
  out.u64(0);
  out.u64(1);
  out.u64(1);  // count
  out.u64(0);  // underflow
  out.f64(2.0);
  out.f64(2.0);
  out.f64(2.0);
  MetricsRegistry parent;
  parent.observe("h", 3.0, {1.0, 4.0});
  try {
    parent.merge_state(out.take());
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("metrics state blob"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------ nightly integration ----

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

TEST(ObsNightly, TracingDoesNotPerturbTheWorkflowReport) {
  const WorkflowDesign design = small_design();
  NightlyWorkflow plain(small_nightly_config());
  const WorkflowReport untraced = plain.run(design);

  obs::SessionOptions options;
  options.dir = "/tmp/episcale_test_obs_perturb";
  options.deterministic_timing = true;
  obs::Session session(std::move(options));
  NightlyConfig config = small_nightly_config();
  config.trace = &session;
  NightlyWorkflow traced_engine(config);
  const WorkflowReport traced = traced_engine.run(design);

  EXPECT_EQ(untraced, traced);
  EXPECT_GT(session.trace().event_count(), 0u);
}

TEST(ObsNightly, TwoTracedRunsAreByteIdentical) {
  auto run_once = [] {
    obs::SessionOptions options;
    options.deterministic_timing = true;
    obs::Session session(std::move(options));
    NightlyConfig config = small_nightly_config();
    config.trace = &session;
    NightlyWorkflow engine(config);
    engine.run(small_design());
    return std::make_pair(session.trace().to_json().dump(),
                          session.metrics().snapshot().dump());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ObsNightly, GoldenTraceFileValidatesAndCoversEveryLayer) {
  const std::string dir = "/tmp/episcale_test_obs_golden";
  std::filesystem::remove_all(dir);

  obs::SessionOptions options;
  options.dir = dir;
  options.deterministic_timing = true;
  obs::Session session(std::move(options));
  NightlyConfig config = small_nightly_config();
  config.trace = &session;
  NightlyWorkflow engine(config);
  const WorkflowReport report = engine.run(small_design());
  session.write();

  const obs::TraceCheckResult result =
      obs::check_trace_file(session.trace_path());
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.processes, 4u);  // home, remote, wan, exec (farm lanes)

  const Json doc = read_json_file(session.trace_path());
  // One 'X' span per PhaseRecord in the report timeline.
  EXPECT_EQ(count_category(doc, "phase"), report.timeline.size());
  // Per-job spans from the DES, per-file WAN spans, per-region instants.
  EXPECT_GT(count_category(doc, "job"), 0u);
  EXPECT_GT(count_category(doc, "wan"), 0u);
  EXPECT_GT(count_category(doc, "config-gen"), 0u);
  EXPECT_GT(count_category(doc, "db-snapshot"), 0u);
  EXPECT_GT(count_category(doc, "execute"), 0u);
  // Farm task spans from the exec pool (sampled simulations).
  EXPECT_GT(count_category(doc, "exec"), 0u);

  const obs::MetricsCheckResult metrics_result =
      obs::check_metrics_file(session.metrics_path());
  EXPECT_TRUE(metrics_result.ok) << joined(metrics_result.errors);
  EXPECT_GT(metrics_result.counters, 0u);
  EXPECT_GT(session.metrics().counter("nightly.runs"), 0u);
  EXPECT_GT(session.metrics().counter("slurm.jobs_completed"), 0u);
  EXPECT_GT(session.metrics().counter("wan.transfers"), 0u);
  EXPECT_GT(session.metrics().counter("persondb.servers_started"), 0u);

  std::filesystem::remove_all(dir);
}

TEST(ObsNightly, FlowEdgesTrackTheFarmAndTurnOffCleanly) {
  auto run_with_flow = [](bool flow) {
    obs::SessionOptions options;
    options.deterministic_timing = true;
    options.flow = flow;
    obs::Session session(std::move(options));
    NightlyConfig config = small_nightly_config();
    config.trace = &session;
    NightlyWorkflow engine(config);
    const WorkflowReport report = engine.run(small_design());
    return std::make_pair(report,
                          obs::check_trace_json(session.trace().to_json()));
  };
  const auto on = run_with_flow(true);
  const auto off = run_with_flow(false);
  EXPECT_TRUE(on.second.ok) << joined(on.second.errors);
  EXPECT_TRUE(off.second.ok) << joined(off.second.errors);
  EXPECT_GT(on.second.flows, 0u);   // the farm's submit->start->finish edges
  EXPECT_EQ(off.second.flows, 0u);  // EPI_TRACE_FLOW=0 removes them all
  EXPECT_EQ(on.first, off.first);   // without touching the report
}

TEST(ObsNightly, FaultInstantsAppearWhenInjectorEnabled) {
  obs::SessionOptions options;
  options.deterministic_timing = true;
  obs::Session session(std::move(options));
  NightlyConfig config = small_nightly_config();
  config.faults.enabled = true;
  config.faults.seed = 777;
  config.faults.node_mtbf_hours = 30.0 * 24.0;
  config.faults.node_repair_hours = 2.0;
  config.faults.wan_degraded_prob = 0.3;
  config.faults.db_drop_prob = 0.5;
  config.checkpoint.interval_ticks = 60;
  config.trace = &session;
  NightlyWorkflow engine(config);
  engine.run(small_design());

  const Json doc = session.trace().to_json();
  EXPECT_GT(count_category(doc, "fault"), 0u);
  EXPECT_TRUE(obs::check_trace_json(doc).ok);
}

TEST(ObsSession, FromEnvFollowsEpiTrace) {
  unsetenv("EPI_TRACE");
  EXPECT_EQ(obs::Session::from_env(), nullptr);
  setenv("EPI_TRACE", "/tmp/episcale_test_obs_env", 1);
  const std::unique_ptr<obs::Session> session = obs::Session::from_env(true);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->dir(), "/tmp/episcale_test_obs_env");
  EXPECT_TRUE(session->trace().deterministic_timing());
  unsetenv("EPI_TRACE");
  std::filesystem::remove_all("/tmp/episcale_test_obs_env");
}

TEST(ObsSession, FlowFollowsEpiTraceFlow) {
  setenv("EPI_TRACE", "/tmp/episcale_test_obs_env_flow", 1);
  // Default on when the variable is unset...
  unsetenv("EPI_TRACE_FLOW");
  EXPECT_TRUE(obs::Session::from_env(true)->flow());
  // ...and for any value other than the literal "0".
  setenv("EPI_TRACE_FLOW", "1", 1);
  EXPECT_TRUE(obs::Session::from_env(true)->flow());
  setenv("EPI_TRACE_FLOW", "0", 1);
  EXPECT_FALSE(obs::Session::from_env(true)->flow());
  unsetenv("EPI_TRACE_FLOW");
  unsetenv("EPI_TRACE");
  std::filesystem::remove_all("/tmp/episcale_test_obs_env_flow");
}

TEST(ObsSession, CreatesMissingOutputDirectoryEagerly) {
  const std::string root = "/tmp/episcale_test_obs_mkdir";
  std::filesystem::remove_all(root);
  obs::SessionOptions options;
  options.dir = root + "/nested/deep";
  options.deterministic_timing = true;
  obs::Session session(std::move(options));
  // Created at construction, not first write: a bad path fails the run
  // up front rather than after hours of simulation.
  EXPECT_TRUE(std::filesystem::is_directory(root + "/nested/deep"));
  session.write();
  EXPECT_TRUE(std::filesystem::exists(session.trace_path()));
  std::filesystem::remove_all(root);
}

TEST(ObsSession, UnusableOutputDirectoryFailsFast) {
  const std::string blocker = "/tmp/episcale_test_obs_blocker";
  std::filesystem::remove_all(blocker);
  std::ofstream(blocker) << "a plain file where the trace dir should go";
  obs::SessionOptions options;
  options.dir = blocker;  // collides with the file
  EXPECT_THROW(obs::Session{std::move(options)}, Error);
  std::filesystem::remove_all(blocker);
}

// ------------------------------------------------------ mpilite hooks ----

TEST(ObsMpilite, HooksCountMessagesAndCollectives) {
  MetricsRegistry metrics;
  mpilite::ObsHooks hooks;
  hooks.metrics = &metrics;
  hooks.deterministic_timing = true;
  mpilite::Runtime::run(
      2,
      [](mpilite::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send<int>(1, 3, std::vector<int>{1, 2, 3});
        } else {
          const auto received = comm.recv<int>(0, 3);
          EXPECT_EQ(received.size(), 3u);
        }
        const std::vector<std::int64_t> one = {1};
        comm.allreduce(std::span<const std::int64_t>(one));
        comm.allgatherv(one);
      },
      hooks);

  EXPECT_GT(metrics.counter("mpilite.msgs.000->001"), 0u);
  EXPECT_GT(metrics.counter("mpilite.bytes.000->001"), 0u);
  // One top-level observation per rank; the allgatherv the allreduce runs
  // on must not double-report.
  EXPECT_EQ(metrics.histogram_count("mpilite.allreduce_s"), 2u);
  EXPECT_EQ(metrics.histogram_count("mpilite.allgatherv_s"), 2u);
  // Deterministic timing: every observed duration is exactly zero.
  const Json snapshot = metrics.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.at("histograms")
                       .at("mpilite.allreduce_s")
                       .at("sum")
                       .as_double(),
                   0.0);
}

TEST(ObsMpilite, NullHooksLeaveNoFootprint) {
  mpilite::Runtime::run(
      2,
      [](mpilite::Comm& comm) {
        comm.allgatherv(std::vector<int>{comm.rank()});
      },
      mpilite::ObsHooks{});
  // Nothing to assert beyond "it ran": the null path must not crash.
  SUCCEED();
}

// ------------------------------------------------------- exec flows ----

TEST(ObsExec, TaskChainsAreWellFormedAcrossCalls) {
  TraceRecorder trace(true);
  exec::ExecConfig config;
  config.jobs = 2;
  config.label = "unit";
  config.obs.trace = &trace;
  config.obs.deterministic_timing = true;
  const auto squares = exec::parallel_index_map(
      5, [](std::size_t i) { return i * i; }, config);
  EXPECT_EQ(squares.size(), 5u);
  // A second call in the same recorder: chain ids must not collide with
  // the first call's (the call-sequence discriminator).
  exec::parallel_index_map(3, [](std::size_t i) { return i + 1; }, config);

  const obs::TraceCheckResult result = obs::check_trace_json(trace.to_json());
  // ok means every submit->start->finish chain is closed, started once,
  // and time-ordered — i.e. the task graph the flows encode is acyclic.
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.flows, 8u);
}

TEST(ObsExec, FlowToggleSuppressesChains) {
  TraceRecorder trace(true);
  exec::ExecConfig config;
  config.jobs = 2;
  config.obs.trace = &trace;
  config.obs.deterministic_timing = true;
  config.obs.flow = false;
  exec::parallel_index_map(4, [](std::size_t i) { return i; }, config);
  const obs::TraceCheckResult result = obs::check_trace_json(trace.to_json());
  EXPECT_TRUE(result.ok) << joined(result.errors);
  EXPECT_EQ(result.flows, 0u);
  EXPECT_EQ(result.spans, 4u);  // the task spans themselves remain
}

// ------------------------------------------------- service telemetry ----

using service::dump_request;
using service::RequestKind;
using service::ScenarioRequest;
using service::ScenarioService;
using service::ServiceConfig;
using service::ServiceOutcome;

ScenarioRequest obs_service_request(const std::string& id) {
  ScenarioRequest request;
  request.id = id;
  request.kind = RequestKind::kCalibration;
  request.region = "VT";
  request.scale_denominator = 400.0;
  request.prior_configs = 8;
  request.posterior_configs = 4;
  request.calibration_days = 20;
  request.horizon_days = 8;
  request.prediction_runs = 2;
  request.mcmc_samples = 30;
  request.mcmc_burn_in = 10;
  return request;
}

TEST(ObsService, RequestSpansFlowsAndCacheCountersAppear) {
  obs::SessionOptions options;
  options.deterministic_timing = true;
  obs::Session session(std::move(options));
  ServiceConfig config;
  config.jobs = 1;
  config.logical_workers = 2;
  config.trace = &session;
  ScenarioService service(config);
  const std::string log = dump_request(obs_service_request("cal-1")) + "\n";
  service.replay_log(log);   // cold: computes the unit
  service.replay_log(log);   // warm: served from cache

  const Json doc = session.trace().to_json();
  const obs::TraceCheckResult result = obs::check_trace_json(doc);
  EXPECT_TRUE(result.ok) << joined(result.errors);
  // parse + plan + execute + schedule per replay wave.
  EXPECT_EQ(count_category(doc, "service-phase"), 8u);
  // One request span per request per wave.
  EXPECT_EQ(count_category(doc, "service-request"), 2u);
  // One request->work edge per request (cold lands on a worker lane,
  // warm on the cache), well-formed either way.
  EXPECT_GE(result.flows, 2u);

  EXPECT_GT(session.metrics().counter("service.requests"), 0u);
  EXPECT_GT(session.metrics().counter("service.cache_misses"), 0u);
  EXPECT_GT(session.metrics().counter("service.cache_hits"), 0u);
}

TEST(ObsService, TracingDoesNotPerturbResponses) {
  const std::string log = dump_request(obs_service_request("cal-1")) + "\n";
  ServiceConfig plain;
  plain.jobs = 1;
  plain.logical_workers = 2;
  ScenarioService untraced(plain);
  const ServiceOutcome base = untraced.replay_log(log);

  obs::SessionOptions options;
  options.deterministic_timing = true;
  obs::Session session(std::move(options));
  ServiceConfig traced_config = plain;
  traced_config.trace = &session;
  ScenarioService traced(traced_config);
  const ServiceOutcome outcome = traced.replay_log(log);
  EXPECT_EQ(outcome.responses, base.responses);
}

// --------------------------------------------------- epitrace library ----

TEST(Epitrace, CriticalPathOnSyntheticTraceHasKnownAnswer) {
  TraceRecorder trace(true);
  const std::uint32_t pid = trace.process("p");
  trace.complete(pid, 0, "window", "phase", 0.0, 10.0);
  trace.complete(pid, 1, "a", "job", 0.0, 3.0);   // ends 3
  trace.complete(pid, 2, "b", "job", 4.0, 4.0);   // ends 8; chains after a
  trace.complete(pid, 3, "c", "job", 1.0, 5.0);   // overlaps both
  trace.complete(pid, 1, "a.inner", "job", 1.0, 1.0);  // nested inside a

  const epitrace::TraceModel model = epitrace::load_trace(trace.to_json());
  const std::vector<epitrace::PhasePath> paths =
      epitrace::critical_paths(model);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].name, "window");
  EXPECT_DOUBLE_EQ(paths[0].duration_hours, 10.0);
  // a (3 h) + b (4 h) = 7 h beats c (5 h) and c + nothing.
  EXPECT_DOUBLE_EQ(paths[0].total_hours, 7.0);
  ASSERT_EQ(paths[0].spans.size(), 2u);
  EXPECT_EQ(paths[0].spans[0].name, "a");
  EXPECT_EQ(paths[0].spans[1].name, "b");
  // Self-time subtracts the hour a.inner occupied a's lane.
  EXPECT_DOUBLE_EQ(paths[0].spans[0].self_hours, 2.0);
  EXPECT_DOUBLE_EQ(paths[0].spans[1].self_hours, 4.0);

  // The summary's own invariants hold on the same input.
  const Json summary = epitrace::summarize(model, Json(JsonObject{}));
  EXPECT_TRUE(summary.at("self_checks_ok").as_bool());
}

TEST(Epitrace, LaneBusyUsesIntervalUnionAndImbalanceRatio) {
  TraceRecorder trace(true);
  const std::uint32_t pid = trace.process("p");
  trace.complete(pid, 0, "outer", "job", 0.0, 4.0);
  trace.complete(pid, 0, "nested", "job", 1.0, 2.0);  // inside outer
  trace.complete(pid, 1, "other", "job", 0.0, 2.0);

  const epitrace::TraceModel model = epitrace::load_trace(trace.to_json());
  const std::vector<epitrace::LaneBusy> lanes = epitrace::lane_busy(model);
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_DOUBLE_EQ(lanes[0].busy_hours, 4.0);  // union, not 6.0
  EXPECT_DOUBLE_EQ(lanes[1].busy_hours, 2.0);
  const std::vector<epitrace::Imbalance> ratios = epitrace::imbalance(model);
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(ratios[0].max_busy_hours, 4.0);
  EXPECT_DOUBLE_EQ(ratios[0].mean_busy_hours, 3.0);
  EXPECT_DOUBLE_EQ(ratios[0].ratio, 4.0 / 3.0);
}

TEST(Epitrace, BenchDiffGateFlagsRegressionsAndHonorsTolerances) {
  namespace fs = std::filesystem;
  const std::string root = "/tmp/episcale_test_epitrace_bench";
  fs::remove_all(root);
  const std::string base = root + "/base";
  const std::string cand = root + "/cand";
  fs::create_directories(base);
  fs::create_directories(cand);

  auto write_bench = [](const std::string& dir, double x, double days) {
    JsonObject metrics;
    metrics["x"] = x;
    metrics["days"] = days;
    JsonObject bench;
    bench["bench"] = std::string("demo");
    bench["metrics"] = Json(std::move(metrics));
    write_json_file(dir + "/BENCH_demo.json", Json(std::move(bench)));
  };
  write_bench(base, 100.0, 24.0);

  // Within the default 5% tolerance: clean.
  write_bench(cand, 104.0, 24.0);
  EXPECT_TRUE(epitrace::bench_diff(base, cand).ok);

  // An 11% drift is flagged.
  write_bench(cand, 111.0, 24.0);
  const epitrace::BenchDiffResult bad = epitrace::bench_diff(base, cand);
  EXPECT_FALSE(bad.ok);

  // tolerances.json overrides: widen the default, tighten one metric.
  JsonObject overrides;
  overrides["demo.days"] = 0.0;
  JsonObject tolerances;
  tolerances["default"] = 0.2;
  tolerances["overrides"] = Json(std::move(overrides));
  write_json_file(base + "/tolerances.json", Json(std::move(tolerances)));
  EXPECT_TRUE(epitrace::bench_diff(base, cand).ok);   // 11% < 20%
  write_bench(cand, 111.0, 25.0);                     // exact-match metric
  EXPECT_FALSE(epitrace::bench_diff(base, cand).ok);

  // A baseline bench missing from the candidate fails the gate.
  fs::remove(cand + "/BENCH_demo.json");
  EXPECT_FALSE(epitrace::bench_diff(base, cand).ok);

  fs::remove_all(root);
}

// ---------------------------------------------------- logging satellite ----

TEST(Logging, ParseLogLevelCoversAllSpellings) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kDebug), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("verbose", LogLevel::kWarn), LogLevel::kWarn);
}

TEST(Logging, SinkCapturesFilteredMessages) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&captured](LogLevel level, const std::string& message) {
    captured.emplace_back(level, message);
  });
  const LogLevel previous = log_level();
  set_log_level(LogLevel::kInfo);

  EPI_INFO("answer " << 42);
  EPI_DEBUG("below the level — never formatted");
  EPI_ERROR("boom");

  set_log_level(previous);
  set_log_sink(nullptr);  // restore the stderr default

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[0].second, "answer 42");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
  EXPECT_EQ(captured[1].second, "boom");
}

}  // namespace
}  // namespace epi
