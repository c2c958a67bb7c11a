// Workload `scenarios`: one cold wave of ScenarioService::replay_log on 4
// farm workers, over a seeded JSONL log of calibration requests at 1/200
// scale — exact duplicates, tails sharing a prior stage, and distinct prior
// stages in three regions. The service, the exec farm, many small
// replicates with interventions, the emulator and MCMC all run here. Set-up
// is generating the log and the regions' sizes, then a warm-up wave of the
// log's first request.
//
// Traced runs re-run each unit's calibration layers serially through the
// same public functions, right after a traced wave, and check that they
// reproduce the wave's response bytes. They also measure the nightly
// workflow's layers, since `nightly` itself is not in BENCHMARK.json.

#include <algorithm>
#include <map>
#include <optional>

#include "analytics/aggregate.hpp"
#include "calibration/calibrate.hpp"
#include "epihiper/parallel.hpp"
#include "obs/obs.hpp"
#include "service/batch.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "surveillance/ground_truth.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workflow/calibration_cycle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = epi::service;

constexpr std::size_t kJobs = 4;
constexpr double kDenominator = 200.0;
/// digest of the cold wave's concatenated responses at the default seed.
constexpr const char* kPinnedDigest = "0ffcbff6ee06c3de35fc1f5a0263c5a3";

/// The campaigns' regions and request seeds. They fix the regions and the
/// prior-design draws, which set most of a wave's cost, so they stay fixed
/// and the workload seed varies the rest of the log. States of 5.8M-6.1M
/// residents (29k-31k persons at 1/200): large enough that replicates, not
/// fixed costs, carry the wave.
struct CampaignSpec {
  const char* region;
  std::uint64_t seed;
};
constexpr CampaignSpec kCampaigns[] = {
    {"MD", 20200411}, {"WI", 20200412}, {"MO", 20200413}};

/// Whether the calibration engine can serve `request`: its surveillance
/// series, scaled to the simulated population, must reach the 15 seeded
/// exposures inside the search window. Mirrors the requirement
/// run_cycle_prior_stage enforces, which aborts the whole replay when
/// violated, so the generator never emits such a request.
bool serves(const svc::ScenarioRequest& request) {
  const epi::CalibrationCycleConfig config = svc::to_cycle_config(request);
  epi::GroundTruthConfig truth;
  truth.seed = config.seed;
  truth.days =
      config.takeoff_search_days + config.calibration_days + config.horizon_days;
  truth.beta = config.truth_beta;
  truth.distancing_effect = config.truth_distancing_effect;
  truth.reporting_rate = config.truth_reporting_rate;
  truth.distancing_end_day = 1 << 28;
  std::vector<double> cumulative =
      epi::generate_state_ground_truth(config.region, truth).cumulative_state();
  for (double& x : cumulative) x *= config.scale;
  const auto window =
      static_cast<std::size_t>(config.calibration_days + config.horizon_days);
  std::size_t offset = 0;
  while (offset + window < cumulative.size() && cumulative[offset] < 15.0) {
    ++offset;
  }
  return offset < cumulative.size() && cumulative[offset] >= 15.0 &&
         offset + window <= cumulative.size();
}

/// The seeded request log: per campaign a base request and a wider tail
/// on the same prior stage, plus two exact duplicates under other ids. The
/// seed picks the duplicated requests and the line order. Priorities go by
/// role (bases, then tails, then duplicates), so every seed plans the same
/// shape of wave: which units wait on a sibling's prior stage decides the
/// farm's makespan.
std::string make_request_log(std::uint64_t seed, std::size_t campaigns) {
  epi::Rng rng = epi::Rng(seed).derive({0x4C4F47ULL});  // "LOG"
  std::vector<svc::ScenarioRequest> requests;
  for (std::size_t c = 0; c < campaigns; ++c) {
    svc::ScenarioRequest base;
    base.kind = svc::RequestKind::kCalibration;
    base.region = kCampaigns[c].region;
    base.scale_denominator = kDenominator;
    base.seed = kCampaigns[c].seed;
    base.prior_configs = 16;
    base.posterior_configs = 8;
    base.calibration_days = 40;
    base.horizon_days = 14;
    base.prediction_runs = 4;
    base.mcmc_samples = 60;
    base.mcmc_burn_in = 30;
    check(serves(base), base.region + std::string(" does not serve at 1/200"));
    base.id = "cal-" + base.region + "-base";
    base.requester = "epi-team";
    base.priority = 2;
    svc::ScenarioRequest wide = base;
    wide.id = "cal-" + base.region + "-wide";
    wide.priority = 1;
    wide.posterior_configs = 12;
    wide.prediction_runs = 6;
    wide.mcmc_samples = 100;
    wide.mcmc_burn_in = 50;
    requests.push_back(base);
    requests.push_back(wide);
  }
  for (std::size_t d = 0; d < 2; ++d) {
    svc::ScenarioRequest duplicate =
        requests[rng.uniform_index(requests.size())];
    duplicate.id += "-dup" + std::to_string(d);
    duplicate.requester = "press-office";
    duplicate.priority = 0;
    requests.push_back(duplicate);
  }
  for (std::size_t i = requests.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(requests[i - 1], requests[rng.uniform_index(i)]);
  }
  std::string log = "# perfbench scenarios log, seed " + std::to_string(seed) +
                    "\n";
  for (const svc::ScenarioRequest& request : requests) {
    log += svc::dump_request(request) + "\n";
  }
  return log;
}

svc::ServiceConfig service_config(std::size_t jobs,
                                  epi::obs::Session* session) {
  svc::ServiceConfig config;
  config.jobs = jobs;
  config.logical_workers = 4;
  config.trace = session;
  return config;
}

std::string responses_bytes(const svc::ServiceOutcome& outcome) {
  std::string bytes;
  for (const std::string& response : outcome.responses) {
    bytes += response;
    bytes += '\x1e';
  }
  return bytes;
}

/// Checks one cold wave: every record's hash matches its response bytes.
void check_wave(const svc::ServiceOutcome& outcome, std::size_t requests) {
  check(outcome.responses.size() == requests &&
            outcome.report.records.size() == requests,
        "wave did not answer every request");
  for (std::size_t i = 0; i < requests; ++i) {
    check(outcome.report.records[i].result_hash ==
              epi::to_hex(epi::hash128(outcome.responses[i])),
          "result_hash of " + outcome.report.records[i].id +
              " does not match its response");
  }
}

/// Seconds of the service's planning and the calibration layers, re-run
/// serially outside the service.
struct LayerTimes {
  double parse_plan = 0.0, prior_stage = 0.0, fit = 0.0, mcmc = 0.0,
         finish = 0.0, replicate = 0.0;
  std::vector<double> acceptance;
};

LayerTimes measure_layers(const std::string& log,
                          const std::vector<svc::ScenarioRequest>& requests,
                          const svc::ServicePlan& plan,
                          const svc::ServiceOutcome& cold, Outcome& outcome,
                          Tracer& t) {
  LayerTimes layers;
  layers.parse_plan = t.time("service.parse_plan", [&] {
    check(svc::plan_requests(svc::parse_request_log(log)).units.size() ==
              plan.units.size(),
          "re-planning changed the unit count");
  });
  for (const svc::Campaign& campaign : plan.campaigns) {
    const svc::ScenarioRequest& owner =
        requests[plan.units[campaign.units.front()].owner];
    const epi::CalibrationCycleConfig stage_config = svc::to_cycle_config(owner);
    epi::CyclePriorStage stage;
    layers.prior_stage += t.time("calibration.prior_stage", [&] {
      stage = epi::run_cycle_prior_stage(stage_config);
    });
    if (&campaign == &plan.campaigns.front()) {
      // One prior-design replicate exactly as the cycle runs it, for the
      // engine counters; it must reproduce the stage's first output row.
      const epi::CellConfig cell = epi::cell_from_calibration_point(
          stage_config.region, 0, stage.prior_design.points[0], 1,
          stage_config.calibration_days, stage_config.seed);
      epi::SimulationConfig sim_config = cell.make_sim_config(0);
      sim_config.num_ticks = stage_config.calibration_days;
      const epi::DiseaseModel model = epi::covid_model(cell.disease);
      epi::SimOutput output;
      layers.replicate = t.time("epihiper.replicate", [&] {
        output = epi::run_simulation(
            stage.region->network, stage.region->population, model,
            sim_config, [&] { return cell.make_interventions(); });
      });
      const std::vector<double> series = epi::log_transform(
          epi::aggregate_state_series(output, stage.region->population, model,
                                      sim_config.num_ticks,
                                      epi::AggregationTarget::kCumulativeConfirmed));
      for (std::size_t d = 0; d < series.size(); ++d) {
        check(series[d] == stage.sim_outputs.at(0, d),
              "outside replicate differs from the prior stage's first run");
      }
      set_engine_metrics(outcome, output, 1);
    }
    for (std::size_t unit_index : campaign.units) {
      const svc::UnitPlan& unit = plan.units[unit_index];
      const epi::CalibrationCycleConfig config =
          svc::to_cycle_config(requests[unit.owner]);
      std::optional<epi::AgentCalibrator> calibrator;
      layers.fit += t.time("emulator.fit", [&] {
        calibrator.emplace(stage.prior_design, epi::Mat(stage.sim_outputs),
                           epi::log_transform(stage.observed_cumulative),
                           config.seed, epi::Mat(stage.replicate_cov));
      });
      layers.mcmc += t.time("calibration.mcmc", [&] {
        layers.acceptance.push_back(
            calibrator->calibrate(config.posterior_configs, config.mcmc)
                .acceptance_rate);
      });
      std::string response;
      layers.finish += t.time("calibration.finish", [&] {
        response = epi::serialize(epi::finish_calibration_cycle(config, stage));
      });
      check(response == cold.responses[unit.owner],
            "outside finish_calibration_cycle differs from the response of " +
                requests[unit.owner].id);
    }
  }
  return layers;
}

}  // namespace

Outcome run_scenarios(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const std::size_t campaigns = options.smoke ? 1 : std::size(kCampaigns);

  // ---- Set-up: the seeded log and the sizes of the regions it touches.
  std::vector<double> setup;
  std::string log;
  std::vector<svc::ScenarioRequest> requests;
  std::map<std::string, double> persons;  // region -> person count
  for (int i = 0; i < (options.smoke ? 1 : 5); ++i) {
    setup.push_back(tracer.time("setup", [&] {
      log = make_request_log(options.seed, campaigns);
      requests = svc::parse_request_log(log);
      persons.clear();
      for (const svc::ScenarioRequest& request : requests) {
        epi::SynthPopConfig pop_config;
        pop_config.region = request.region;
        pop_config.scale = 1.0 / request.scale_denominator;
        pop_config.seed = request.seed;
        const std::string key = svc::region_key_text(pop_config);
        if (persons.count(key) == 0) {
          persons[key] =
              epi::generate_region(pop_config).population.person_count();
        }
      }
      svc::ScenarioService warm_up(service_config(kJobs, nullptr));
      warm_up.serve({requests.front()});
    }));
  }
  const svc::ServicePlan plan = svc::plan_requests(requests);
  const auto persons_of = [&](const svc::ScenarioRequest& request) {
    return persons.at(svc::region_key_text(
        request.region, 1.0 / request.scale_denominator, request.seed));
  };
  // Person-ticks one cold wave simulates: each campaign's prior stage once
  // (prior design + 6 covariance replicates), every unit's forecast runs.
  double person_ticks = 0.0;
  for (const svc::Campaign& campaign : plan.campaigns) {
    const svc::ScenarioRequest& owner =
        requests[plan.units[campaign.units.front()].owner];
    person_ticks += persons_of(owner) *
                    static_cast<double>(owner.prior_configs + 6) *
                    owner.calibration_days;
  }
  for (const svc::UnitPlan& unit : plan.units) {
    const svc::ScenarioRequest& r = requests[unit.owner];
    person_ticks += persons_of(r) *
                    static_cast<double>(std::min(r.prediction_runs,
                                                 r.posterior_configs)) *
                    (r.calibration_days + r.horizon_days);
  }

  // ---- Operations: a cold wave on a fresh service, then a warm replay
  // that must be byte-identical. Right after the first traced waves, the
  // calibration layers are re-timed outside the service, so the breakdown
  // sees the wave's host speed.
  constexpr std::size_t kTracedLayerRuns = 3;
  std::vector<double> warm_s;
  std::vector<LayerTimes> traced_layers;
  std::string first_bytes;
  svc::ServiceOutcome cold;
  double exec_tasks = 0.0, exec_steals = 0.0;
  repeat_ops(options, tracer, outcome.ops, [&](Tracer& t, bool traced) {
    epi::obs::Session session(epi::obs::SessionOptions{});
    svc::ScenarioService service(
        service_config(kJobs, traced ? &session : nullptr));
    const double op_s = t.time("operation", [&] {
      cold = service.replay_log(log);
    });
    check_wave(cold, requests.size());
    const std::string bytes = responses_bytes(cold);
    if (first_bytes.empty()) first_bytes = bytes;
    check(bytes == first_bytes, "responses differ between cold waves");
    check(options.seed != kDefaultSeed || options.smoke ||
              digest(bytes) == kPinnedDigest,
          "response digest " + digest(bytes) + " differs from the pinned one");
    svc::ServiceOutcome warm;
    warm_s.push_back(t.time("service.warm_wave",
                            [&] { warm = service.replay_log(log); }));
    check(responses_bytes(warm) == bytes,
          "warm wave is not byte-identical to the cold one");
    check(warm.report.cached_requests == requests.size(),
          "warm wave recomputed a cached response");
    if (traced) {
      exec_tasks = static_cast<double>(session.metrics().counter("exec.tasks"));
      exec_steals = static_cast<double>(session.metrics().counter("exec.steal"));
      if (traced_layers.size() < kTracedLayerRuns) {
        traced_layers.push_back(
            measure_layers(log, requests, plan, cold, outcome, t));
      }
    }
    return op_s;
  });

  // ---- Scaling: cold waves on 1 and on 4 workers, interleaved. A
  // 4-worker wave is one more operation and joins the log.
  const auto cold_wave = [&](std::size_t jobs) {
    svc::ScenarioService service(service_config(jobs, nullptr));
    svc::ServiceOutcome wave;
    const double seconds = tracer.time("wave_" + std::to_string(jobs) + "_jobs",
                                       [&] { wave = service.replay_log(log); });
    if (outcome.ops.record_check(responses_bytes(wave) == first_bytes,
                                 "responses differ at " +
                                     std::to_string(jobs) + " workers") &&
        jobs == kJobs) {
      outcome.ops.plain.push_back(seconds);
    }
    return seconds;
  };
  const double efficiency = interleaved_efficiency(
      options.smoke ? 1 : 4, kJobs, [&] { return cold_wave(1); },
      [&] { return cold_wave(kJobs); });

  set_common_metrics(outcome, setup);
  const double op_median = outcome.end_to_end["time_to_result_s"];
  outcome.end_to_end["person_ticks_per_s"] = person_ticks / op_median;
  outcome.end_to_end["scaling_eff_4r"] = efficiency;

  if (tracer.enabled()) {
    auto& layer = outcome.per_layer;
    const svc::ServiceReport& report = cold.report;
    layer["service.computed_units"] = static_cast<double>(report.computed_units);
    layer["service.deduped_requests"] =
        static_cast<double>(report.deduped_requests);
    layer["service.stage_shares"] = static_cast<double>(report.stage_shares);
    layer["service.cache_hit_ratio"] =
        static_cast<double>(report.cache.total_hits()) /
        static_cast<double>(report.cache.total_lookups());
    layer["service.warm_wave_s"] = median(warm_s);
    layer["service.virtual_saving"] =
        report.naive_cost_hours / report.actual_cost_hours;
    layer["exec.tasks"] = exec_tasks;
    layer["exec.steals"] = exec_steals;

    check(!traced_layers.empty(), "no traced operation succeeded");
    // Farm work ran on kJobs workers: `per_worker` counts it as
    // worker-seconds / kJobs, so farm imbalance and waiting land in
    // unattributed.
    const auto column = [&](double LayerTimes::*field, double per_worker) {
      std::vector<double> values;
      for (const LayerTimes& layers : traced_layers) {
        values.push_back(layers.*field / per_worker);
      }
      return values;
    };
    layer["service.parse_plan_s"] = median(column(&LayerTimes::parse_plan, 1));
    layer["calibration.prior_stage_s"] =
        median(column(&LayerTimes::prior_stage, 1));
    layer["emulator.fit_s"] = median(column(&LayerTimes::fit, 1));
    layer["calibration.mcmc_s"] = median(column(&LayerTimes::mcmc, 1));
    layer["calibration.mcmc_acceptance"] =
        median(traced_layers.back().acceptance);
    layer["calibration.finish_s"] = median(column(&LayerTimes::finish, 1));
    layer["epihiper.serial_replicate_s"] =
        median(column(&LayerTimes::replicate, 1));
    set_breakdown(outcome, {{"service.parse_plan",
                             column(&LayerTimes::parse_plan, 1)},
                            {"calibration.prior_stage (/4 workers)",
                             column(&LayerTimes::prior_stage, kJobs)},
                            {"calibration.finish (/4 workers)",
                             column(&LayerTimes::finish, kJobs)}});
    // Outside the breakdown: the workflow and cluster layers, which a
    // service wave does not call.
    measure_workflow_layers(options, tracer, outcome);
  }
  std::fprintf(stderr, "perfbench: scenarios %zu requests, %zu units, %zu "
               "campaigns\n",
               requests.size(), plan.units.size(), plan.campaigns.size());
  return outcome;
}

}  // namespace perfbench
