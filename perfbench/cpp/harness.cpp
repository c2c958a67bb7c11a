#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "util/hash.hpp"

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id, double start, double end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].start_s = start;
  spans_[static_cast<std::size_t>(id)].end_s = end;
  stack_.pop_back();
}

void Tracer::write_chrome(const std::string& path) const {
  // Span names are the benchmark's own identifiers: no escaping needed.
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char line[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  span.start_s * 1e6, (span.end_s - span.start_s) * 1e6);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"cat\": \"perfbench\", " << line << "\"args\": {\"parent\": \""
        << (span.parent < 0 ? ""
                            : spans_[static_cast<std::size_t>(span.parent)].name)
        << "\"}}";
  }
  out << "\n]}\n";
  check(static_cast<bool>(out), "cannot write trace " + path);
}

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure("output check failed: " + what);
}

bool OpLog::record_check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
  }
  return ok;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double tail(std::vector<double> values) {
  if (values.size() < 21) return median(values);
  std::sort(values.begin(), values.end());
  return values[values.size() - 11];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest(const std::string& bytes) {
  return epi::to_hex(epi::hash128(bytes));
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"time_to_result_s", "s"},
      {"time_to_result_tail_s", "s"},
      {"setup_s", "s"},
      {"person_ticks_per_s", "person-ticks/s"},
      {"scaling_eff_4r", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"synthpop.generate_region_s", "s"},
      {"network.write_binary_s", "s"},
      {"network.read_binary_s", "s"},
      {"network.binary_bytes", "bytes"},
      {"network.content_hash_s", "s"},
      {"network.partition_s", "s"},
      {"network.write_chunks_s", "s"},
      {"network.read_chunks_s", "s"},
      {"network.ghost_sources_s", "s"},
      {"network.edge_imbalance", "ratio"},
      {"epihiper.tick_loop_s", "s"},
      {"epihiper.edges_evaluated", "count"},
      {"epihiper.ticks_executed", "count"},
      {"epihiper.ticks_skipped", "count"},
      {"epihiper.events_fired", "count"},
      {"epihiper.events_stale", "count"},
      {"epihiper.total_infections", "count"},
      {"epihiper.transitions", "count"},
      {"epihiper.serial_replicate_s", "s"},
      {"epihiper.work_units", "count"},
      {"epihiper.rank_imbalance", "ratio"},
      {"epihiper.peak_memory_bytes", "bytes"},
      {"mpilite.bytes", "bytes"},
      {"mpilite.ghost_bytes", "bytes"},
      {"mpilite.msgs", "count"},
      {"mpilite.collective_s", "s"},
      {"mpilite.collective_calls", "count"},
      {"analytics.summary_cube_s", "s"},
      {"analytics.forest_s", "s"},
      {"workflow.cell_configs_s", "s"},
      {"workflow.config_bytes_s", "s"},
      {"workflow.config_bytes", "bytes"},
      {"cluster.pack_s", "s"},
      {"cluster.des_s", "s"},
      {"cluster.des_faults_s", "s"},
      {"cluster.jobs", "count"},
      {"cluster.jobs_requeued", "count"},
      {"service.parse_plan_s", "s"},
      {"service.computed_units", "count"},
      {"service.deduped_requests", "count"},
      {"service.stage_shares", "count"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.warm_wave_s", "s"},
      {"service.virtual_saving", "ratio"},
      {"exec.tasks", "count"},
      {"exec.steals", "count"},
      {"calibration.prior_stage_s", "s"},
      {"emulator.fit_s", "s"},
      {"calibration.mcmc_s", "s"},
      {"calibration.mcmc_acceptance", "ratio"},
      {"calibration.finish_s", "s"},
      {"bench.unattributed_s", "s"},
      {"bench.trace_overhead_frac", "ratio"},
      {"bench.failed_frac", "ratio"},
      {"bench.samples", "count"},
      {"bench.nproc", "count"},
  };
  return defs;
}

void set_common_metrics(Outcome& outcome, const std::vector<double>& setup) {
  const OpLog& ops = outcome.ops;
  outcome.end_to_end["time_to_result_s"] = median(ops.plain);
  outcome.end_to_end["time_to_result_tail_s"] = tail(ops.plain);
  outcome.end_to_end["setup_s"] = median(setup);
  outcome.end_to_end["peak_rss_mb"] = peak_rss_mb();
  auto& layer = outcome.per_layer;
  layer["bench.samples"] = static_cast<double>(ops.succeeded());
  layer["bench.failed_frac"] =
      ops.attempted == 0 ? 0.0
                         : static_cast<double>(ops.failed) /
                               static_cast<double>(ops.attempted);
  if (!ops.traced.empty()) {
    layer["bench.trace_overhead_frac"] =
        median(ops.traced) / median(ops.plain) - 1.0;
  }
}

void set_breakdown(Outcome& outcome, const std::vector<BreakdownRow>& rows) {
  std::size_t paired = outcome.ops.traced.size();
  for (const BreakdownRow& row : rows) {
    paired = std::min(paired, row.second.size());
  }
  check(paired > 0, "no traced operation succeeded");
  const std::vector<double> operations(outcome.ops.traced.begin(),
                                       outcome.ops.traced.begin() + paired);
  std::vector<double> left = operations;
  outcome.breakdown.clear();
  for (const auto& [layer, seconds] : rows) {
    for (std::size_t i = 0; i < paired; ++i) left[i] -= seconds[i];
    outcome.breakdown.emplace_back(layer, median(seconds));
  }
  const double operation = median(operations);
  const double unattributed = median(left);
  if (unattributed < 0.0) {
    std::fprintf(stderr,
                 "perfbench: layer rows exceed the traced operation (%.4f s) "
                 "by %.4f s\n",
                 operation, -unattributed);
  }
  check(unattributed >= -0.5 * operation,
        "layer rows exceed the traced operation by more than half of it");
  outcome.per_layer["bench.unattributed_s"] = unattributed;
  outcome.breakdown.emplace_back("unattributed", unattributed);
}

}  // namespace perfbench
