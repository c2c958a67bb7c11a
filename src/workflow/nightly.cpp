#include "workflow/nightly.hpp"

#include <algorithm>

#include "analytics/aggregate.hpp"
#include "epihiper/parallel.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "workflow/report_text.hpp"

namespace epi {

NightlyWorkflow::NightlyWorkflow(NightlyConfig config)
    : config_(std::move(config)),
      remote_(bridges_cluster()),
      home_(rivanna_cluster()) {
  EPI_REQUIRE(config_.scale > 0.0 && config_.scale <= 1.0,
              "scale out of (0, 1]");
}

const SyntheticRegion& NightlyWorkflow::region(const std::string& abbrev) {
  auto it = regions_.find(abbrev);
  if (it == regions_.end()) {
    SynthPopConfig pop_config;
    pop_config.region = abbrev;
    pop_config.scale = config_.scale;
    pop_config.seed = config_.seed;
    it = regions_
             .emplace(abbrev, make_region(config_.region_source, pop_config))
             .first;
    // One person-database server per region (section V step 1); the
    // production bound of ~1000 connections applies.
    databases_.start(it->second->population, db_connection_bound());
  }
  return *it->second;
}

WorkflowReport NightlyWorkflow::run(const WorkflowDesign& design) {
  WorkflowReport report;
  report.name = design.name;
  report.planned_simulations = design.simulations();

  const FaultInjector injector(config_.faults);
  ResilienceLedger ledger;
  GlobusTransfer wan;
  wan.enable_resilience(&injector, config_.retry, &ledger);

  // Observability session (null = disabled, the exact untraced path).
  obs::TraceRecorder* const trace =
      config_.trace != nullptr ? &config_.trace->trace() : nullptr;
  obs::MetricsRegistry* const metrics =
      config_.trace != nullptr ? &config_.trace->metrics() : nullptr;
  std::uint32_t pid_home = 0, pid_remote = 0, pid_wan = 0;
  if (trace != nullptr) {
    pid_home = trace->process("home");
    pid_remote = trace->process("remote");
    pid_wan = trace->process("wan");
    trace->thread_name(pid_home, 0, "workflow");
    trace->thread_name(pid_remote, 0, "workflow");
    trace->thread_name(pid_wan, 0, "to remote");
    trace->thread_name(pid_wan, 1, "to home");
    ledger.set_trace(trace, pid_remote, 0);
    wan.enable_trace(trace, pid_wan, metrics);
  }
  databases_.set_metrics(metrics);
  auto site_pid = [&](const std::string& site) {
    return site == "home" ? pid_home : site == "remote" ? pid_remote : pid_wan;
  };

  double clock_hours = 0.0;
  auto phase = [&](const std::string& name, const std::string& site,
                   double duration_hours) {
    report.timeline.push_back(PhaseRecord{name, site, clock_hours,
                                          duration_hours});
    if (trace != nullptr) {
      // Phase-span tid 0 is each site's "workflow" lane; DES job spans
      // live on the per-node lanes above it.
      obs::TraceArgs args;
      args["site"] = site;
      trace->complete(site_pid(site), 0, name, "phase", clock_hours,
                      duration_hours, std::move(args));
      trace->set_sim_hours(clock_hours + duration_hours);
    }
    clock_hours += duration_hours;
  };
  // Wall-clock phase duration with a model floor; under deterministic
  // timing the floor is the duration.
  auto timed_hours = [&](double floor_hours, const Timer& timer) {
    if (config_.deterministic_timing) return floor_hours;
    return std::max(floor_hours, timer.elapsed_seconds() / 3600.0);
  };

  // ---- Phase 1 (home): generate cell configurations ----------------------
  Timer config_timer;
  std::map<std::string, std::vector<CellConfig>> configs_by_region;
  for (const std::string& abbrev : design.regions) {
    auto configs = make_cell_configs(design, abbrev, config_.seed);
    std::uint64_t region_bytes = 0;
    for (const CellConfig& config : configs) {
      region_bytes += config.byte_size();
    }
    report.config_bytes += region_bytes;
    if (trace != nullptr) {
      obs::TraceArgs args;
      args["bytes"] = region_bytes;
      args["cells"] = static_cast<std::uint64_t>(configs.size());
      trace->instant(pid_home, 0, "configs " + abbrev, "config-gen",
                     clock_hours, std::move(args));
    }
    configs_by_region.emplace(abbrev, std::move(configs));
  }
  phase("generate configurations", "home", timed_hours(0.25, config_timer));

  // ---- Phase 2 (WAN): configs to the remote site --------------------------
  wan.set_clock_hours(clock_hours);
  ledger.set_trace_base_hours(clock_hours);
  const double config_transfer_s =
      wan.transfer("cell configurations", report.config_bytes, true);
  phase("transfer configurations", "wan", config_transfer_s / 3600.0);

  // ---- Phase 3 (remote): instantiate population database snapshots -------
  // Snapshot instantiation is modeled: ~30 s fixed + 10 s per million
  // full-scale persons, all regions starting in parallel.
  double db_start_hours = 0.0;
  for (const std::string& abbrev : design.regions) {
    const StateInfo& state = state_by_abbrev(abbrev);
    const double seconds =
        30.0 + 10.0 * static_cast<double>(state.population) / 1e6;
    if (trace != nullptr) {
      obs::TraceArgs args;
      args["seconds"] = seconds;
      trace->instant(pid_remote, 0, "snapshot " + abbrev, "db-snapshot",
                     clock_hours, std::move(args));
    }
    db_start_hours = std::max(db_start_hours, seconds / 3600.0);
  }
  phase("start population databases", "remote", db_start_hours);

  // ---- Phase 4 (remote): map and execute the job array -------------------
  const std::vector<SimTask> tasks = make_workflow_tasks(
      design.regions, design.cells, design.replicates, design.cost_factor);
  const PackingPlan plan =
      pack_tasks(tasks, remote_.nodes, config_.policy);
  // Replay the packed order through the Slurm DES.
  std::map<std::uint64_t, const SimTask*> by_id;
  for (const SimTask& task : tasks) by_id.emplace(task.id, &task);
  std::vector<SimTask> ordered;
  ordered.reserve(tasks.size());
  for (const PackingLevel& level : plan.levels) {
    for (std::uint64_t id : level.task_ids) ordered.push_back(*by_id.at(id));
  }
  DesConfig des_config;
  des_config.window_hours = remote_.window_hours;
  des_config.backfill = config_.policy != PackingPolicy::kNextFitArrival;
  des_config.faults = &injector;
  des_config.checkpoint = config_.checkpoint;
  des_config.checkpoint.job_ticks = design.num_days;
  des_config.ledger = &ledger;
  des_config.trace = trace;
  des_config.trace_pid = pid_remote;
  des_config.trace_base_hours = clock_hours;
  des_config.metrics = metrics;
  ledger.set_trace_base_hours(clock_hours);
  Rng des_rng = Rng(config_.seed).derive({0x444553ULL});  // "DES"
  const DesResult des = simulate_cluster(remote_, ordered, des_config, des_rng);
  report.schedule_makespan_hours = des.makespan_hours;
  report.utilization = des.utilization;
  report.unfinished_jobs = des.unfinished;
  phase("simulate (job array)", "remote", des.makespan_hours);

  // ---- Phase 4b: really execute a sample of the jobs ----------------------
  const std::vector<std::string>& sample_pool =
      config_.sample_regions.empty() ? design.regions : config_.sample_regions;
  EPI_REQUIRE(config_.sample_executions == 0 || !sample_pool.empty(),
              "sample executions requested ("
                  << config_.sample_executions
                  << ") but the sample pool is empty: the design has no "
                     "regions and NightlyConfig::sample_regions is empty");
  exec::ExecConfig farm;
  farm.jobs = config_.jobs;
  farm.label = "sample";
  farm.obs.trace = trace;
  farm.obs.metrics = metrics;
  farm.obs.deterministic_timing = config_.deterministic_timing;
  farm.obs.flow = config_.trace != nullptr && config_.trace->flow();
  double raw_bytes_per_person = 0.0;
  std::uint64_t sampled_persons = 0;
  double db_retry_wait_s = 0.0;
  Timer execute_timer;
  ledger.set_trace_base_hours(clock_hours);

  // Lazy region synthesis, farmed out: collect the regions the sample
  // will touch, generate the missing ones concurrently (generate_region
  // is a pure function of its config), then commit them to the cache —
  // and start their database servers — in first-use order, so the
  // registry ends up exactly as the serial engine leaves it.
  if (config_.sample_executions > 0) {
    std::vector<std::string> missing;
    for (std::size_t i = 0; i < config_.sample_executions; ++i) {
      const std::string& abbrev = sample_pool[i % sample_pool.size()];
      if (regions_.find(abbrev) == regions_.end() &&
          std::find(missing.begin(), missing.end(), abbrev) ==
              missing.end()) {
        missing.push_back(abbrev);
      }
    }
    exec::ExecConfig synth = farm;
    synth.label = "synth-region";
    auto generated = exec::parallel_map(
        missing,
        [&](const std::string& abbrev) {
          SynthPopConfig pop_config;
          pop_config.region = abbrev;
          pop_config.scale = config_.scale;
          pop_config.seed = config_.seed;
          return make_region(config_.region_source, pop_config);
        },
        synth);
    for (std::size_t r = 0; r < missing.size(); ++r) {
      auto it = regions_.emplace(missing[r], std::move(generated[r])).first;
      databases_.start(it->second->population, db_connection_bound());
    }
  }

  // Orchestration pass, in sample order: trace milestones and the
  // per-job database sessions (the DB-WMP constraint made concrete) are
  // engine state, so they stay serial regardless of the worker count —
  // which keeps the report and trace byte-identical to the serial path.
  for (std::size_t i = 0; i < config_.sample_executions; ++i) {
    const std::string& abbrev = sample_pool[i % sample_pool.size()];
    region(abbrev);  // cache hit after the prefetch above
    if (trace != nullptr) {
      obs::TraceArgs args;
      args["index"] = static_cast<std::uint64_t>(i);
      args["region"] = abbrev;
      trace->instant(pid_remote, 0, "sample " + abbrev, "execute",
                     clock_hours, std::move(args));
    }
    // Each running job holds connections against the region's database.
    // Under fault injection the session may drop and reconnect with
    // backoff.
    ResilientConnectResult session = databases_.get(abbrev).connect_resilient(
        injector, config_.retry, &ledger);
    db_retry_wait_s += session.wait_s;
    EPI_REQUIRE(session.connection.has_value(),
                "database connection pool exhausted for " << abbrev);
    // Touch the traits through the server as the simulator does at start.
    session.connection->persons_in_county(0);
    report.db_queries_served += session.connection->queries_served();
  }

  // Execution pass: the sampled simulations themselves — each a pure
  // function of its (cell, replicate) — run on the farm; their stats are
  // accumulated in sample-index order below.
  struct SampleStats {
    std::uint64_t raw_bytes = 0;
    std::uint64_t cube_bytes = 0;
    std::uint64_t persons = 0;
  };
  const auto sample_stats = exec::parallel_index_map(
      config_.sample_executions,
      [&](std::size_t i) {
        const std::string& abbrev = sample_pool[i % sample_pool.size()];
        const SyntheticRegion& reg = *regions_.at(abbrev);
        const auto& configs = configs_by_region.at(abbrev);
        const CellConfig& cell = configs[i % configs.size()];
        SimulationConfig sim_config = cell.make_sim_config(
            static_cast<std::uint32_t>(i) % cell.replicates);
        sim_config.num_ticks = std::min(config_.executed_days, cell.num_days);
        const DiseaseModel model = covid_model(cell.disease);
        const SimOutput output =
            run_simulation(reg.network, reg.population, model, sim_config,
                           [&] { return cell.make_interventions(); });
        const SummaryCube cube = build_summary_cube(
            output, reg.population, model, sim_config.num_ticks);
        SampleStats stats;
        stats.raw_bytes = raw_output_bytes(output);
        stats.cube_bytes = cube.byte_size();
        stats.persons = reg.population.person_count();
        return stats;
      },
      farm);
  for (const SampleStats& stats : sample_stats) {
    report.raw_bytes_measured += stats.raw_bytes;
    report.summary_bytes_measured += stats.cube_bytes;
    sampled_persons += stats.persons;
    ++report.executed_simulations;
  }
  if (sampled_persons > 0) {
    raw_bytes_per_person = static_cast<double>(report.raw_bytes_measured) /
                           static_cast<double>(sampled_persons);
  }
  // Extrapolate: raw output scales with persons simulated; it does NOT
  // scale with the remaining horizon, because transitions concentrate in
  // the epidemic wave, which the executed window covers. Summaries are
  // population-independent per simulation but grow with the horizon.
  std::uint64_t design_population = 0;
  for (const std::string& abbrev : design.regions) {
    design_population += state_by_abbrev(abbrev).population;
  }
  const double horizon_factor =
      static_cast<double>(design.num_days) /
      static_cast<double>(std::max<Tick>(1, std::min(config_.executed_days,
                                                     design.num_days)));
  report.raw_bytes_full_scale =
      raw_bytes_per_person * static_cast<double>(design_population) *
      design.cells * design.replicates;
  // Mean sampled cube size: sampled cells can differ in horizon/shape, so
  // extrapolating from the last sampled cube alone would skew the
  // full-scale summary estimate toward whatever cell happened to run
  // last.
  const double mean_cube_bytes =
      report.executed_simulations > 0
          ? static_cast<double>(report.summary_bytes_measured) /
                static_cast<double>(report.executed_simulations)
          : 0.0;
  const double full_cube_bytes = mean_cube_bytes * horizon_factor;
  report.summary_bytes_full_scale =
      full_cube_bytes * static_cast<double>(report.planned_simulations);
  phase("aggregate outputs", "remote",
        timed_hours(0.3, execute_timer) + db_retry_wait_s / 3600.0);

  // ---- Phase 5 (WAN): summaries home --------------------------------------
  wan.set_clock_hours(clock_hours);
  ledger.set_trace_base_hours(clock_hours);
  const double summary_transfer_s = wan.transfer(
      "summary outputs",
      static_cast<std::uint64_t>(report.summary_bytes_full_scale), false);
  phase("transfer summaries", "wan", summary_transfer_s / 3600.0);

  // ---- Phase 6 (home): analysis -------------------------------------------
  phase("analyze / brief stakeholders", "home", 2.0);

  report.db_servers_started = databases_.running_count();
  for (const std::string& abbrev : design.regions) {
    if (databases_.is_running(abbrev)) {
      report.db_peak_connections = std::max(
          report.db_peak_connections,
          databases_.get(abbrev).peak_connections());
    }
  }
  report.bytes_to_remote = wan.total_bytes_to_remote();
  report.bytes_to_home = wan.total_bytes_to_home();
  report.wan_seconds_to_remote = wan.total_seconds_to_remote();
  report.wan_seconds_to_home = wan.total_seconds_to_home();
  report.total_elapsed_hours = clock_hours;

  report.resilience = ledger.summary();
  report.deadline_slack_hours =
      remote_.window_hours - report.schedule_makespan_hours;
  report.deadline_met =
      report.unfinished_jobs == 0 &&
      (remote_.window_hours <= 0.0 ||
       report.schedule_makespan_hours <= remote_.window_hours);
  if (metrics != nullptr) {
    metrics->add("nightly.runs");
    metrics->add("nightly.planned_simulations", report.planned_simulations);
    metrics->add("nightly.executed_simulations", report.executed_simulations);
    metrics->add("nightly.config_bytes", report.config_bytes);
    metrics->add("nightly.raw_bytes_measured", report.raw_bytes_measured);
    metrics->add("nightly.summary_bytes_measured",
                 report.summary_bytes_measured);
    metrics->add("nightly.db_queries_served", report.db_queries_served);
    metrics->set("nightly.utilization", report.utilization);
    metrics->set("nightly.makespan_hours", report.schedule_makespan_hours);
    metrics->set("nightly.total_elapsed_hours", report.total_elapsed_hours);
    metrics->set("nightly.deadline_slack_hours", report.deadline_slack_hours);
    metrics->set("nightly.deadline_met", report.deadline_met ? 1.0 : 0.0);
  }
  EPI_INFO("workflow " << design.name << ": " << report.planned_simulations
                       << " sims planned, utilization " << report.utilization
                       << ", makespan " << report.schedule_makespan_hours
                       << "h");
  return report;
}

std::string serialize(const WorkflowReport& report) {
  using report_text::put;
  using report_text::put_count;
  using report_text::put_line;
  using report_text::put_text;
  std::string out;
  out.reserve(1 << 12);
  put_text(out, "name", report.name);
  put_count(out, "planned_simulations", report.planned_simulations);
  put_count(out, "executed_simulations", report.executed_simulations);
  put_count(out, "config_bytes", report.config_bytes);
  put_count(out, "raw_bytes_measured", report.raw_bytes_measured);
  put_count(out, "summary_bytes_measured", report.summary_bytes_measured);
  put_line(out, "raw_bytes_full_scale", report.raw_bytes_full_scale);
  put_line(out, "summary_bytes_full_scale", report.summary_bytes_full_scale);
  put_line(out, "schedule_makespan_hours", report.schedule_makespan_hours);
  put_line(out, "utilization", report.utilization);
  put_count(out, "unfinished_jobs", report.unfinished_jobs);
  put_count(out, "bytes_to_remote", report.bytes_to_remote);
  put_count(out, "bytes_to_home", report.bytes_to_home);
  put_line(out, "wan_seconds_to_remote", report.wan_seconds_to_remote);
  put_line(out, "wan_seconds_to_home", report.wan_seconds_to_home);
  for (std::size_t i = 0; i < report.timeline.size(); ++i) {
    const PhaseRecord& phase = report.timeline[i];
    out += "timeline[" + std::to_string(i) + "]=" + phase.phase + '|' +
           phase.site + '|';
    put(out, phase.start_hours);
    out += '|';
    put(out, phase.duration_hours);
    out += '\n';
  }
  put_line(out, "total_elapsed_hours", report.total_elapsed_hours);
  put_count(out, "db_servers_started", report.db_servers_started);
  put_count(out, "db_peak_connections", report.db_peak_connections);
  put_count(out, "db_queries_served", report.db_queries_served);
  const ResilienceSummary& res = report.resilience;
  put_count(out, "resilience.node_crashes", res.node_crashes);
  put_count(out, "resilience.jobs_killed", res.jobs_killed);
  put_count(out, "resilience.jobs_requeued", res.jobs_requeued);
  put_count(out, "resilience.wan_failures", res.wan_failures);
  put_count(out, "resilience.wan_degraded", res.wan_degraded);
  put_count(out, "resilience.wan_retries", res.wan_retries);
  put_count(out, "resilience.db_drops", res.db_drops);
  put_count(out, "resilience.db_reconnects", res.db_reconnects);
  put_count(out, "resilience.sim_retries", res.sim_retries);
  put_line(out, "resilience.wasted_node_hours", res.wasted_node_hours);
  put_line(out, "resilience.checkpoint_overhead_node_hours",
           res.checkpoint_overhead_node_hours);
  put_line(out, "resilience.retry_wait_hours", res.retry_wait_hours);
  put_line(out, "deadline_slack_hours", report.deadline_slack_hours);
  put_count(out, "deadline_met", report.deadline_met ? 1 : 0);
  return out;
}

}  // namespace epi
