// The nightly combined workflow engine (paper Figs 1-2, §IV).
//
// Orchestrates one workflow across the two-cluster infrastructure model:
//   home:   generate cell configurations            (day)
//   WAN:    ship configurations to the remote site  (Globus model)
//   remote: instantiate population DB snapshots, map the <cell, region>
//           job set with FFDT-DC, execute the job array in the 10pm-8am
//           window (Slurm DES), aggregate outputs
//   WAN:    ship summaries home
//   home:   post-analysis
//
// Simulation physics run for real: a configurable sample of <cell, region>
// jobs is executed with the actual EpiHiper engine at the configured
// population scale; measured per-person output volumes extrapolate to the
// full design at scale 1 (who-runs-what and the schedule itself are exact,
// only the volume figures are extrapolated — see DESIGN.md).
//
// Resilience: NightlyConfig carries a FaultSpec; when enabled, node
// crashes hit the Slurm DES (killed jobs requeue from their last
// checkpoint), WAN transfers fail/degrade and retry with backoff, and
// person-DB sessions drop and reconnect. Every fault and recovery lands
// in WorkflowReport::resilience; with the spec disabled (default) the
// engine is byte-identical to the fault-free build.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "persondb/person_db.hpp"
#include "cluster/packing.hpp"
#include "cluster/slurm_sim.hpp"
#include "cluster/transfer.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "resilience/retry_policy.hpp"
#include "synthpop/generator.hpp"
#include "workflow/designs.hpp"

namespace epi::obs {
class Session;
}

namespace epi {

struct NightlyConfig {
  double scale = 1.0 / 8000.0;  // synthetic-population scale for real sims
  std::uint64_t seed = 20200325;
  /// How many <cell, region> jobs to execute with the real engine; the
  /// rest are covered by the schedule simulation + extrapolation.
  std::size_t sample_executions = 12;
  /// Regions eligible for real execution (empty = all; pick small states
  /// to keep bench runtime bounded).
  std::vector<std::string> sample_regions = {"WY", "VT", "DC", "AK"};
  /// Ticks actually executed in sampled runs (the full design's 365-day
  /// horizon is extrapolated linearly from this).
  Tick executed_days = 120;
  PackingPolicy policy = PackingPolicy::kFirstFitDecreasing;

  /// Worker threads for the real work of Phase 4b — the sampled
  /// simulations and the lazy region synthesis behind them; 0 = the
  /// EPI_JOBS environment variable (default 1, the serial seed path).
  /// Each sampled job is a pure function of its config/seed and the
  /// orchestration state (trace milestones, DB sessions, accounting) is
  /// committed in sample-index order, so the parallel WorkflowReport is
  /// byte-identical to the serial one.
  std::size_t jobs = 0;

  /// Injected fault environment (disabled by default: perfect hardware,
  /// so no attempt fails, drops or is killed).
  FaultSpec faults;
  /// Backoff for WAN transfers and person-DB sessions under faults.
  RetryPolicy retry;
  /// Checkpoint/requeue model for remote jobs (interval_ticks == 0, the
  /// default: no checkpoint writes, and killed jobs restart from
  /// scratch). job_ticks is overwritten with the design's horizon at run
  /// time.
  CheckpointSpec checkpoint;
  /// Replace wall-clock phase timings (config generation, sample
  /// execution) with their deterministic model floors, making the whole
  /// WorkflowReport — timeline included — reproducible bit for bit.
  /// Off by default: the seed behaviour reports measured wall time.
  bool deterministic_timing = false;

  /// Optional observability session (non-owning; nullptr = disabled, the
  /// exact untraced code path). When set, every phase becomes a span,
  /// per-region milestones become instants, the Slurm DES / WAN / person
  /// DBs / resilience ledger all report into the session, and the caller
  /// writes trace.json + metrics.json via obs::Session::write(). Pair
  /// with deterministic_timing for byte-reproducible files.
  obs::Session* trace = nullptr;

  /// Injectable region supplier (null = generate_region directly). The
  /// scenario service points this at its content-addressed artifact cache
  /// so overlapping nightly requests share synthetic-population builds;
  /// generate_region is pure, so the WorkflowReport is byte-identical
  /// either way.
  RegionSource region_source;
};

struct PhaseRecord {
  std::string phase;
  std::string site;  // "home", "remote", "wan"
  double start_hours = 0.0;
  double duration_hours = 0.0;

  bool operator==(const PhaseRecord&) const = default;
};

struct WorkflowReport {
  std::string name;
  std::uint64_t planned_simulations = 0;
  std::uint64_t executed_simulations = 0;

  // Data accounting.
  std::uint64_t config_bytes = 0;
  std::uint64_t raw_bytes_measured = 0;      // at NightlyConfig::scale
  std::uint64_t summary_bytes_measured = 0;
  double raw_bytes_full_scale = 0.0;         // extrapolated to scale 1
  double summary_bytes_full_scale = 0.0;

  // Remote schedule.
  double schedule_makespan_hours = 0.0;
  double utilization = 0.0;
  std::size_t unfinished_jobs = 0;

  // Transfers.
  std::uint64_t bytes_to_remote = 0;
  std::uint64_t bytes_to_home = 0;
  double wan_seconds_to_remote = 0.0;
  double wan_seconds_to_home = 0.0;

  std::vector<PhaseRecord> timeline;
  double total_elapsed_hours = 0.0;

  // Person-database accounting (the per-region servers the simulations
  // query at run time).
  std::size_t db_servers_started = 0;
  std::size_t db_peak_connections = 0;
  std::uint64_t db_queries_served = 0;

  // Resilience accounting (all-zero when the injector is disabled).
  ResilienceSummary resilience;
  /// Slack against the 8am deadline: window length minus the remote
  /// schedule makespan (negative = the schedule blew the window).
  double deadline_slack_hours = 0.0;
  /// The night made its deadline: every job finished inside the window.
  bool deadline_met = true;

  bool operator==(const WorkflowReport&) const = default;
};

class NightlyWorkflow {
 public:
  explicit NightlyWorkflow(NightlyConfig config);

  /// Runs one workflow end to end and reports.
  WorkflowReport run(const WorkflowDesign& design);

  /// Region cache (also used by benches that want the same populations).
  const SyntheticRegion& region(const std::string& abbrev);

  /// The per-region person-database registry ("one database per region",
  /// paper section V step 1); servers start lazily with their regions.
  PersonDbRegistry& databases() { return databases_; }

  const NightlyConfig& config() const { return config_; }

 private:
  NightlyConfig config_;
  ClusterSpec remote_;
  ClusterSpec home_;
  // Shared-const so an injected region_source can hand the same build to
  // several engines at once.
  std::map<std::string, std::shared_ptr<const SyntheticRegion>> regions_;
  PersonDbRegistry databases_;
};

/// Deterministic full-field dump of a workflow report (doubles rendered as
/// hexfloat, so distinct values never collide). Equal strings mean
/// byte-identical reports — the oracle for the re-invocation regression
/// tests and the scenario service's response bytes.
std::string serialize(const WorkflowReport& report);

}  // namespace epi
