// Workload `nightly`: NightlyWorkflow::run(calibration_design()) on a fresh
// engine — 15,300 cells over 51 regions, the nightly_national_run settings
// (1/8000 scale, 8 sample executions, 90 days) with deterministic timing,
// Phase 4b on 4 workers. Cell configurations and the Slurm DES dominate.
// Set-up is the same workflow over two regions, a warm-up before timing.
//
// Traced runs time the layers run() calls internally by calling the same
// public functions on the same inputs after each traced operation, and
// check that they reproduce the report (config bytes, makespan,
// utilization) exactly.

#include <algorithm>
#include <map>

#include "cluster/machine.hpp"
#include "cluster/packing.hpp"
#include "cluster/slurm_sim.hpp"
#include "cluster/task_model.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "workflow/nightly.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kJobs = 4;
/// digest(serialize(WorkflowReport)) at the default seed.
constexpr const char* kPinnedDigest = "dbf51e24975903e02aef6917f7433b47";

epi::NightlyConfig nightly_config(const Options& options, std::size_t jobs) {
  epi::NightlyConfig config;
  config.scale = 1.0 / 8000.0;
  config.seed = 20200325 + (options.seed - kDefaultSeed);
  config.sample_executions = options.smoke ? 2 : 8;
  config.executed_days = 90;
  config.deterministic_timing = true;
  config.jobs = jobs;
  return config;
}

/// The design cut down to the first `regions` sample regions, for the
/// warm-up and smoke runs.
epi::WorkflowDesign reduced(epi::WorkflowDesign design, std::size_t regions) {
  const std::vector<std::string> pool = epi::NightlyConfig{}.sample_regions;
  design.regions.assign(pool.begin(),
                        pool.begin() + std::min(regions, pool.size()));
  return design;
}

/// Sampled executions must come from the design's own regions.
epi::NightlyConfig sampling(epi::NightlyConfig config,
                            const epi::WorkflowDesign& design) {
  for (const std::string& region : config.sample_regions) {
    if (std::find(design.regions.begin(), design.regions.end(), region) ==
        design.regions.end()) {
      config.sample_regions = design.regions;
      break;
    }
  }
  return config;
}

struct Run {
  epi::WorkflowReport report;
  double person_ticks = 0.0;
};

/// One operation: a fresh engine runs the design.
Run run_workflow(const epi::NightlyConfig& config,
                 const epi::WorkflowDesign& design, Tracer& t,
                 double* seconds) {
  epi::NightlyWorkflow engine(config);
  Run run;
  *seconds = t.time("operation", [&] { run.report = engine.run(design); });
  // Person-ticks the sampled executions simulated (region() is a cache hit
  // after run()).
  const std::vector<std::string>& pool =
      config.sample_regions.empty() ? design.regions : config.sample_regions;
  const double days = std::min(config.executed_days, design.num_days);
  for (std::size_t i = 0; i < config.sample_executions; ++i) {
    run.person_ticks +=
        engine.region(pool[i % pool.size()]).population.person_count() * days;
  }
  return run;
}

/// Layer times of one outside re-run of run()'s configuration, DES and
/// packing steps.
struct LayerTimes {
  double cell_configs = 0.0, config_bytes_s = 0.0, pack = 0.0, des = 0.0,
         des_faults = 0.0;
  std::uint64_t config_bytes = 0;
  std::size_t jobs = 0, jobs_requeued = 0;
};

LayerTimes measure_layers(const epi::NightlyConfig& config,
                          const epi::WorkflowDesign& design,
                          const epi::WorkflowReport& report, Tracer& t) {
  LayerTimes layers;
  for (const std::string& region : design.regions) {
    std::vector<epi::CellConfig> configs;
    layers.cell_configs += t.time("workflow.cell_configs", [&] {
      configs = epi::make_cell_configs(design, region, config.seed);
    });
    layers.config_bytes_s += t.time("workflow.config_bytes", [&] {
      for (const epi::CellConfig& cell : configs) {
        layers.config_bytes += cell.byte_size();
      }
    });
  }
  check(layers.config_bytes == report.config_bytes,
        "outside config_bytes " + std::to_string(layers.config_bytes) +
            " != WorkflowReport::config_bytes " +
            std::to_string(report.config_bytes));

  const epi::ClusterSpec remote = epi::bridges_cluster();
  std::vector<epi::SimTask> ordered;
  layers.pack = t.time("cluster.pack", [&] {
    const std::vector<epi::SimTask> tasks = epi::make_workflow_tasks(
        design.regions, design.cells, design.replicates, design.cost_factor);
    const epi::PackingPlan plan =
        epi::pack_tasks(tasks, remote.nodes, config.policy);
    std::map<std::uint64_t, const epi::SimTask*> by_id;
    for (const epi::SimTask& task : tasks) by_id.emplace(task.id, &task);
    for (const epi::PackingLevel& level : plan.levels) {
      for (std::uint64_t id : level.task_ids) ordered.push_back(*by_id.at(id));
    }
  });
  epi::DesConfig des_config;
  des_config.window_hours = remote.window_hours;
  des_config.backfill = config.policy != epi::PackingPolicy::kNextFitArrival;
  const epi::Rng des_rng = epi::Rng(config.seed).derive({0x444553ULL});
  epi::DesResult des;
  layers.des = t.time("cluster.des", [&] {
    epi::Rng rng = des_rng;
    des = epi::simulate_cluster(remote, ordered, des_config, rng);
  });
  check(des.makespan_hours == report.schedule_makespan_hours &&
            des.utilization == report.utilization,
        "outside DES does not reproduce the report's schedule");
  layers.jobs = des.jobs.size();

  // The same queue with node crashes (30-day MTBF) and checkpoint requeue.
  epi::FaultSpec faults;
  faults.enabled = true;
  faults.node_mtbf_hours = 720.0;
  const epi::FaultInjector injector(faults);
  epi::ResilienceLedger ledger;
  des_config.faults = &injector;
  des_config.checkpoint.interval_ticks = 30;
  des_config.checkpoint.job_ticks = static_cast<std::uint32_t>(design.num_days);
  des_config.ledger = &ledger;
  epi::DesResult faulty;
  layers.des_faults = t.time("cluster.des_faults", [&] {
    epi::Rng rng = des_rng;
    faulty = epi::simulate_cluster(remote, ordered, des_config, rng);
  });
  layers.jobs_requeued = faulty.jobs_requeued;
  return layers;
}

std::vector<double> column(const std::vector<LayerTimes>& runs,
                           double LayerTimes::*field) {
  std::vector<double> values;
  for (const LayerTimes& layers : runs) values.push_back(layers.*field);
  return values;
}

/// The workflow.* and cluster.* metrics: medians of the re-timed layers,
/// and their counts, which are the same every time.
void set_workflow_metrics(Outcome& outcome,
                          const std::vector<LayerTimes>& runs) {
  check(!runs.empty(), "no traced operation succeeded");
  const LayerTimes& counts = runs.back();
  auto& layer = outcome.per_layer;
  layer["workflow.cell_configs_s"] =
      median(column(runs, &LayerTimes::cell_configs));
  layer["workflow.config_bytes_s"] =
      median(column(runs, &LayerTimes::config_bytes_s));
  layer["workflow.config_bytes"] = static_cast<double>(counts.config_bytes);
  layer["cluster.pack_s"] = median(column(runs, &LayerTimes::pack));
  layer["cluster.des_s"] = median(column(runs, &LayerTimes::des));
  layer["cluster.des_faults_s"] = median(column(runs, &LayerTimes::des_faults));
  layer["cluster.jobs"] = static_cast<double>(counts.jobs);
  layer["cluster.jobs_requeued"] = static_cast<double>(counts.jobs_requeued);
}

epi::WorkflowDesign workload_design(const Options& options) {
  return options.smoke ? reduced(epi::calibration_design(), 3)
                       : epi::calibration_design();
}

}  // namespace

void measure_workflow_layers(const Options& options, Tracer& tracer,
                             Outcome& outcome) {
  const epi::WorkflowDesign design = workload_design(options);
  const epi::NightlyConfig config =
      sampling(nightly_config(options, kJobs), design);
  Tracer untraced(false);
  double seconds = 0.0;
  const Run run = run_workflow(config, design, untraced, &seconds);
  set_workflow_metrics(outcome,
                       {measure_layers(config, design, run.report, tracer)});
}

Outcome run_nightly(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const epi::WorkflowDesign design = workload_design(options);
  const epi::NightlyConfig config =
      sampling(nightly_config(options, kJobs), design);

  // ---- Set-up: the workflow over two regions, warming before timing.
  std::vector<double> setup;
  {
    const epi::WorkflowDesign warm = reduced(design, 2);
    const epi::NightlyConfig warm_config = sampling(config, warm);
    Tracer untraced(false);
    for (int i = 0; i < (options.smoke ? 1 : 9); ++i) {
      setup.push_back(tracer.time("setup", [&] {
        double seconds = 0.0;
        run_workflow(warm_config, warm, untraced, &seconds);
      }));
    }
  }

  // ---- Operations. Right after each traced one, its layers are re-timed
  // outside run(), so the breakdown sees the operation's host speed.
  std::vector<LayerTimes> traced_layers;
  std::string first_bytes;
  Run last;
  repeat_ops(options, tracer, outcome.ops, [&](Tracer& t, bool traced) {
    double op_s = 0.0;
    last = run_workflow(config, design, t, &op_s);
    const std::string bytes = epi::serialize(last.report);
    if (first_bytes.empty()) first_bytes = bytes;
    check(bytes == first_bytes, "WorkflowReport differs between operations");
    check(options.seed != kDefaultSeed || options.smoke ||
              digest(bytes) == kPinnedDigest,
          "WorkflowReport digest " + digest(bytes) + " differs from pinned");
    if (traced) {
      traced_layers.push_back(measure_layers(config, design, last.report, t));
    }
    return op_s;
  });

  // ---- Scaling: the operation at 1 and at 4 workers, interleaved. A
  // 4-worker sample is one more operation and joins the log, so the median
  // spans more of the host's drifting speed than 4 timed operations do.
  Tracer untraced(false);
  const auto timed_run = [&](std::size_t jobs) {
    double seconds = 0.0;
    const Run run = run_workflow(sampling(nightly_config(options, jobs), design),
                                 design, untraced, &seconds);
    if (outcome.ops.record_check(epi::serialize(run.report) == first_bytes,
                                 "WorkflowReport differs at " +
                                     std::to_string(jobs) + " workers") &&
        jobs == kJobs) {
      outcome.ops.plain.push_back(seconds);
    }
    return seconds;
  };
  const double efficiency = interleaved_efficiency(
      options.smoke ? 1 : 2, kJobs, [&] { return timed_run(1); },
      [&] { return timed_run(kJobs); });

  set_common_metrics(outcome, setup);
  const double op_median = outcome.end_to_end["time_to_result_s"];
  outcome.end_to_end["person_ticks_per_s"] = last.person_ticks / op_median;
  outcome.end_to_end["scaling_eff_4r"] = efficiency;

  if (tracer.enabled()) {
    set_workflow_metrics(outcome, traced_layers);
    set_breakdown(
        outcome,
        {{"workflow.cell_configs",
          column(traced_layers, &LayerTimes::cell_configs)},
         {"workflow.config_bytes",
          column(traced_layers, &LayerTimes::config_bytes_s)},
         {"cluster.pack", column(traced_layers, &LayerTimes::pack)},
         {"cluster.des", column(traced_layers, &LayerTimes::des)}});
  }
  std::fprintf(stderr, "perfbench: nightly %zu cells x %zu regions, config "
               "bytes %lu, makespan %.4f h\n",
               static_cast<std::size_t>(design.cells), design.regions.size(),
               static_cast<unsigned long>(last.report.config_bytes),
               last.report.schedule_makespan_hours);
  return outcome;
}

}  // namespace perfbench
