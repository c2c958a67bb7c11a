#include "service/service.hpp"

#include <algorithm>
#include <map>

#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "workflow/report_text.hpp"

namespace epi::service {

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kComputed:
      return "computed";
    case ServeStatus::kDeduped:
      return "deduped";
    case ServeStatus::kCached:
      return "cached";
  }
  return "unknown";
}

namespace {

constexpr const char* kClassRegion = "region";
constexpr const char* kClassCyclePrior = "cycle-prior";
constexpr const char* kClassCycleResult = "cycle-result";
constexpr const char* kClassNightlyReport = "nightly-report";

/// Per-unit virtual schedule slot.
struct Slot {
  bool precached = false;
  bool paid_stage = false;
  double cost_hours = 0.0;
  double start_hours = 0.0;
  double finish_hours = 0.0;
  std::size_t worker = 0;
};

}  // namespace

ScenarioService::ScenarioService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity != 0
                 ? config_.cache_capacity
                 : env_positive_size("EPI_SERVICE_CACHE_CAP", 0)) {
  if (config_.logical_workers == 0) {
    config_.logical_workers = env_positive_size("EPI_SERVICE_WORKERS", 4);
  }
  config_.cache_capacity = cache_.capacity();
}

ServiceOutcome ScenarioService::serve(
    const std::vector<ScenarioRequest>& requests) {
  const ServicePlan plan = plan_requests(requests);
  const CacheStats stats_before = cache_.stats();

  // ---- Pre-wave cache probe (deterministic: pre-wave state is a pure
  // function of the serve history). A unit whose whole response is
  // resident is served at latency 0; a campaign whose stage is resident
  // skips the stage cost.
  std::vector<Slot> slots(plan.units.size());
  std::map<Hash128, bool> stage_resident;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const UnitPlan& unit = plan.units[u];
    slots[u].precached = cache_.contains(unit.result_key);
    if (unit.has_stage && !stage_resident.count(unit.stage_key)) {
      stage_resident[unit.stage_key] = cache_.contains(unit.stage_key);
    }
  }

  // ---- Execute every unit on the engine farm. All units go through
  // get_or_compute (precached ones resolve instantly), so the cache
  // counters are a pure function of the plan: one result lookup per
  // unit, one compute per non-resident key, regardless of EPI_JOBS.
  const RegionSource cached_regions =
      [this](const SynthPopConfig& pop_config) {
        return cache_.get_or_compute<SyntheticRegion>(
            kClassRegion, hash128(region_key_text(pop_config)), [&] {
              return std::make_shared<const SyntheticRegion>(
                  generate_region(pop_config));
            });
      };
  const auto run_unit =
      [&](std::size_t u) -> std::shared_ptr<const std::string> {
    const UnitPlan& unit = plan.units[u];
    const ScenarioRequest& request = requests[unit.owner];
    if (unit.kind == RequestKind::kCalibration) {
      return cache_.get_or_compute<std::string>(
          kClassCycleResult, unit.result_key, [&] {
            CalibrationCycleConfig config = to_cycle_config(request);
            config.region_source = cached_regions;
            const std::shared_ptr<const CyclePriorStage> stage =
                cache_.get_or_compute<CyclePriorStage>(
                    kClassCyclePrior, unit.stage_key, [&] {
                      return std::make_shared<const CyclePriorStage>(
                          run_cycle_prior_stage(config));
                    });
            return std::make_shared<const std::string>(
                serialize(finish_calibration_cycle(config, *stage)));
          });
    }
    return cache_.get_or_compute<std::string>(
        kClassNightlyReport, unit.result_key, [&] {
          NightlyConfig config = to_nightly_config(request);
          config.region_source = cached_regions;
          NightlyWorkflow workflow(config);
          return std::make_shared<const std::string>(
              serialize(workflow.run(to_nightly_design(request))));
        });
  };
  // The farm flushes its observability from this (orchestrator) thread
  // after the join, so the session's single-threaded TraceRecorder is safe
  // to share with it.
  exec::ExecObs farm_obs;
  if (config_.trace != nullptr) {
    farm_obs.trace = &config_.trace->trace();
    farm_obs.metrics = &config_.trace->metrics();
    farm_obs.deterministic_timing =
        config_.trace->trace().deterministic_timing();
    farm_obs.flow = config_.trace->flow();
  }
  const std::vector<std::shared_ptr<const std::string>> unit_responses =
      exec::parallel_index_map(plan.units.size(), run_unit,
                               exec::ExecConfig{config_.jobs, "service",
                                                farm_obs});

  // ---- Virtual-latency schedule: list-schedule the executed units onto
  // logical_workers abstract workers in plan order (earliest-free worker,
  // ties to the lowest id; every request arrives at 0). A campaign's
  // stage finishes on its payer before any sibling tail may start.
  std::vector<double> worker_free(config_.logical_workers, 0.0);
  std::map<Hash128, double> stage_ready;
  double makespan = 0.0;
  double actual_cost = 0.0;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const UnitPlan& unit = plan.units[u];
    Slot& slot = slots[u];
    if (slot.precached) continue;
    slot.paid_stage = unit.has_stage && unit.pays_stage &&
                      !stage_resident[unit.stage_key];
    slot.cost_hours =
        unit.tail_cost_hours + (slot.paid_stage ? unit.stage_cost_hours : 0.0);
    const auto earliest =
        std::min_element(worker_free.begin(), worker_free.end());
    slot.worker = static_cast<std::size_t>(earliest - worker_free.begin());
    slot.start_hours = *earliest;
    if (unit.has_stage) {
      if (slot.paid_stage) {
        stage_ready[unit.stage_key] =
            slot.start_hours + unit.stage_cost_hours;
      } else if (!stage_resident[unit.stage_key]) {
        // Wait for the campaign payer's stage to land.
        slot.start_hours =
            std::max(slot.start_hours, stage_ready[unit.stage_key]);
      }
    }
    slot.finish_hours = slot.start_hours + slot.cost_hours;
    worker_free[slot.worker] = slot.finish_hours;
    makespan = std::max(makespan, slot.finish_hours);
    actual_cost += slot.cost_hours;
  }

  // ---- Deterministic cache aging: commit uses in plan order, then
  // evict down to capacity — from this thread only, so the surviving
  // artifact set replays exactly at any worker count.
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const UnitPlan& unit = plan.units[u];
    const ScenarioRequest& request = requests[unit.owner];
    if (unit.kind == RequestKind::kCalibration) {
      cache_.commit_use(hash128(region_key_text(
          request.region, 1.0 / request.scale_denominator, request.seed)));
      cache_.commit_use(unit.stage_key);
    }
    cache_.commit_use(unit.result_key);
  }
  cache_.evict_excess();

  // ---- Assemble the outcome in original log order.
  ServiceOutcome outcome;
  outcome.responses.resize(requests.size());
  ServiceReport& report = outcome.report;
  report.requests = requests.size();
  report.campaigns = plan.campaigns.size();
  for (const Campaign& campaign : plan.campaigns) {
    report.stage_shares += campaign.units.size() - 1;
  }
  report.logical_workers = config_.logical_workers;
  report.makespan_hours = makespan;
  report.actual_cost_hours = actual_cost;
  report.cache = cache_.stats();
  report.records.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t u = plan.unit_of[i];
    const UnitPlan& unit = plan.units[u];
    const Slot& slot = slots[u];
    EPI_REQUIRE(unit_responses[u] != nullptr,
                "service unit " << u << " produced no response");
    outcome.responses[i] = *unit_responses[u];
    RequestRecord& record = report.records[i];
    const ScenarioRequest& request = requests[i];
    record.id = request.id;
    record.requester = request.requester;
    record.priority = request.priority;
    record.kind = request.kind;
    if (slot.precached) {
      record.status = ServeStatus::kCached;
      ++report.cached_requests;
    } else if (i == unit.owner) {
      record.status = ServeStatus::kComputed;
    } else {
      record.status = ServeStatus::kDeduped;
      ++report.deduped_requests;
    }
    record.latency_hours = slot.precached ? 0.0 : slot.finish_hours;
    record.response_bytes = outcome.responses[i].size();
    record.result_hash = to_hex(hash128(outcome.responses[i]));
    report.naive_cost_hours +=
        stage_cost_hours(request) + tail_cost_hours(request);
  }
  for (const Slot& slot : slots) {
    if (!slot.precached) ++report.computed_units;
  }

  // ---- Observability (orchestrator thread, after the wave; virtual
  // times keep traced replays byte-reproducible).
  if (config_.trace != nullptr) {
    obs::TraceRecorder& trace = config_.trace->trace();
    obs::MetricsRegistry& metrics = config_.trace->metrics();
    const std::uint32_t pid = trace.process("service");
    for (std::size_t w = 0; w < config_.logical_workers; ++w) {
      trace.thread_name(pid, static_cast<std::uint32_t>(w),
                        "logical-worker-" + std::to_string(w));
    }
    const auto orch = static_cast<std::uint32_t>(config_.logical_workers);
    trace.thread_name(pid, orch, "orchestrator");
    // Flow ids of different waves must not collide; the recorder's event
    // count at the top of this block is a deterministic discriminator.
    const std::uint64_t wave_seq = trace.event_count();
    const bool flow = config_.trace->flow();

    // Wave phases on the orchestrator lane, at the virtual times the unit
    // spans below inhabit (byte-reproducible by construction).
    {
      obs::TraceArgs args;
      args["requests"] = static_cast<std::uint64_t>(requests.size());
      args["units"] = static_cast<std::uint64_t>(plan.units.size());
      args["campaigns"] = static_cast<std::uint64_t>(plan.campaigns.size());
      trace.complete(pid, orch, "plan", "service-phase", 0.0, 0.0,
                     std::move(args));
    }
    {
      obs::TraceArgs args;
      args["units_computed"] = static_cast<std::uint64_t>(
          report.computed_units);
      trace.complete(pid, orch, "execute", "service-phase", 0.0, makespan,
                     std::move(args));
    }
    {
      obs::TraceArgs args;
      args["makespan_hours"] = report.makespan_hours;
      args["logical_workers"] = static_cast<std::uint64_t>(
          config_.logical_workers);
      trace.complete(pid, orch, "schedule", "service-phase", 0.0, 0.0,
                     std::move(args));
    }
    for (std::size_t u = 0; u < plan.units.size(); ++u) {
      const UnitPlan& unit = plan.units[u];
      const Slot& slot = slots[u];
      const std::string& owner_id = requests[unit.owner].id;
      if (slot.precached) {
        trace.instant(pid, 0, "cache-hit[" + owner_id + "]", "service", 0.0);
        continue;
      }
      trace.complete(pid, static_cast<std::uint32_t>(slot.worker),
                     "unit[" + owner_id + "]", "service", slot.start_hours,
                     slot.cost_hours);
    }
    // Per-request spans and request->campaign-unit flow edges: every
    // request gets a span covering its virtual latency on the
    // orchestrator lane, linked to the unit (or cache hit) that served it.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::size_t u = plan.unit_of[i];
      const Slot& slot = slots[u];
      const RequestRecord& record = report.records[i];
      obs::TraceArgs args;
      args["id"] = record.id;
      args["status"] = std::string(to_string(record.status));
      trace.complete(pid, orch, "request[" + record.id + "]",
                     "service-request", 0.0, record.latency_hours, args);
      if (flow) {
        const std::string chain =
            "svc:req" + std::to_string(i) + "#" + std::to_string(wave_seq);
        trace.flow_start(pid, orch, "request", "service", 0.0, chain, args);
        if (slot.precached) {
          trace.flow_end(pid, 0, "cache-hit", "service", 0.0, chain,
                         std::move(args));
        } else {
          trace.flow_end(pid, static_cast<std::uint32_t>(slot.worker),
                         "unit", "service", slot.start_hours, chain,
                         std::move(args));
        }
      }
    }
    metrics.add("service.requests", report.requests);
    metrics.add("service.units_computed", report.computed_units);
    metrics.add("service.requests_deduped", report.deduped_requests);
    metrics.add("service.requests_cached", report.cached_requests);
    metrics.add("service.campaigns", report.campaigns);
    const CacheStats wave = report.cache;
    const std::uint64_t lookups =
        wave.total_lookups() - stats_before.total_lookups();
    const std::uint64_t hits = wave.total_hits() - stats_before.total_hits();
    metrics.add("service.cache_lookups", lookups);
    metrics.add("service.cache_hits", hits);
    metrics.add("service.cache_misses", lookups - hits);
    metrics.add("service.cache_evictions",
                wave.evictions - stats_before.evictions);
    metrics.set_max("service.makespan_hours", report.makespan_hours);
  }
  return outcome;
}

ServiceOutcome ScenarioService::replay_log(const std::string& log_text) {
  std::vector<ScenarioRequest> requests = parse_request_log(log_text);
  if (config_.trace != nullptr) {
    obs::TraceRecorder& trace = config_.trace->trace();
    const std::uint32_t pid = trace.process("service");
    const auto orch = static_cast<std::uint32_t>(config_.logical_workers);
    trace.thread_name(pid, orch, "orchestrator");
    obs::TraceArgs args;
    args["requests"] = static_cast<std::uint64_t>(requests.size());
    args["log_bytes"] = static_cast<std::uint64_t>(log_text.size());
    trace.complete(pid, orch, "parse", "service-phase", 0.0, 0.0,
                   std::move(args));
  }
  return serve(requests);
}

std::string serialize(const ServiceReport& report) {
  using report_text::put_count;
  using report_text::put_line;
  std::string out = "service_report v1\n";
  put_count(out, "requests", report.requests);
  put_count(out, "computed_units", report.computed_units);
  put_count(out, "deduped_requests", report.deduped_requests);
  put_count(out, "cached_requests", report.cached_requests);
  put_count(out, "campaigns", report.campaigns);
  put_count(out, "stage_shares", report.stage_shares);
  put_count(out, "cache_evictions", report.cache.evictions);
  for (const auto& [cls, stats] : report.cache.classes) {
    out += "cache[";
    out += cls;
    out += "]=";
    out += std::to_string(stats.lookups);
    out += '/';
    out += std::to_string(stats.computes);
    out += '/';
    out += std::to_string(stats.hits());
    out += " lookups/computes/hits\n";
  }
  put_line(out, "naive_cost_hours", report.naive_cost_hours);
  put_line(out, "actual_cost_hours", report.actual_cost_hours);
  put_line(out, "makespan_hours", report.makespan_hours);
  put_count(out, "logical_workers", report.logical_workers);
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const RequestRecord& record = report.records[i];
    out += "request[";
    out += std::to_string(i);
    out += "]=";
    out += record.id;
    out += '|';
    out += record.requester;
    out += '|';
    out += std::to_string(record.priority);
    out += '|';
    out += to_string(record.kind);
    out += '|';
    out += to_string(record.status);
    out += "|latency=";
    report_text::put(out, record.latency_hours);
    out += "|bytes=";
    out += std::to_string(record.response_bytes);
    out += "|hash=";
    out += record.result_hash;
    out += '\n';
  }
  return out;
}

}  // namespace epi::service
