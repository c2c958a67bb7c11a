// epitrace — causal-trace profiler and perf-regression gate.
//
// Usage:
//   epitrace report <run_dir> [--json] [--check] [--top K]
//   epitrace diff <a> <b>
//   epitrace check <trace.json> [metrics.json ...]
//
// `report` loads <run_dir>/trace.json (+ metrics.json when present) and
// prints the critical path per phase, lane imbalance, blocked-time
// attribution, and top spans; --json prints the machine-readable summary
// instead, and --check exits 1 unless every self-check passes.
//
// `diff` compares two directories. When both hold BENCH_*.json reports it
// runs the tolerance-gated baseline comparison (exit 1 on regression —
// the CI perf gate); when they hold trace.json run outputs it prints an
// informational run-to-run comparison.
//
// `check` structurally validates emitted files (src/obs/trace_check.hpp
// has the exact rules): each argument ending in "metrics.json" as a
// metrics snapshot, everything else as a Chrome trace_event document. It
// prints one summary line per file, plus one line per error.
//
// Exit codes: 0 ok, 1 failed check or regression, 2 usage/load error.
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "epitrace/epitrace.hpp"
#include "obs/trace_check.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using epi::Json;
using epi::JsonObject;

int usage() {
  std::fputs(
      "usage: epitrace report <run_dir> [--json] [--check] [--top K]\n"
      "       epitrace diff <a> <b>\n"
      "       epitrace check <trace.json> [metrics.json ...]\n",
      stderr);
  return 2;
}

/// Loads <dir>/metrics.json, or an empty object when the run has none.
Json load_metrics(const std::string& dir) {
  const auto path = std::filesystem::path(dir) / "metrics.json";
  if (!std::filesystem::exists(path)) return Json(JsonObject{});
  return epi::read_json_file(path.string());
}

bool has_bench_reports(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      return true;
    }
  }
  return false;
}

int run_report(const std::vector<std::string>& args) {
  std::string dir;
  bool as_json = false;
  bool check = false;
  std::size_t top_k = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      as_json = true;
    } else if (args[i] == "--check") {
      check = true;
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (dir.empty()) {
      dir = args[i];
    } else {
      return usage();
    }
  }
  if (dir.empty()) return usage();

  const auto trace_path = std::filesystem::path(dir) / "trace.json";
  const epi::epitrace::TraceModel model =
      epi::epitrace::load_trace_file(trace_path.string());
  const Json metrics = load_metrics(dir);
  const Json summary = epi::epitrace::summarize(model, metrics, top_k);
  if (as_json) {
    const std::string text = summary.dump(2);
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
  } else {
    const std::string text = epi::epitrace::render_text(summary);
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  if (check && !summary.at("self_checks_ok").as_bool()) {
    std::fputs("epitrace: self-checks FAILED\n", stderr);
    return 1;
  }
  return 0;
}

int run_diff(const std::string& a, const std::string& b) {
  if (has_bench_reports(a)) {
    // Bench mode: tolerance-gated regression comparison, a = baselines.
    const epi::epitrace::BenchDiffResult result =
        epi::epitrace::bench_diff(a, b);
    const std::string text = epi::epitrace::render_bench_diff(result);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return result.ok ? 0 : 1;
  }
  const epi::epitrace::TraceModel model_a = epi::epitrace::load_trace_file(
      (std::filesystem::path(a) / "trace.json").string());
  const epi::epitrace::TraceModel model_b = epi::epitrace::load_trace_file(
      (std::filesystem::path(b) / "trace.json").string());
  const Json metrics_a = load_metrics(a);
  const Json metrics_b = load_metrics(b);
  const std::string text = epi::epitrace::render_diff(
      epi::epitrace::summarize(model_a, metrics_a),
      epi::epitrace::summarize(model_b, metrics_b), metrics_a, metrics_b);
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

bool is_metrics_path(std::string_view path) {
  constexpr std::string_view kSuffix = "metrics.json";
  return path.size() >= kSuffix.size() &&
         path.substr(path.size() - kSuffix.size()) == kSuffix;
}

/// One summary line for `path`, then one line per error.
void print_check(const std::string& path, bool ok, const std::string& counts,
                 const std::vector<std::string>& errors) {
  std::string text =
      path + ": " + (ok ? "OK" : "FAIL") + " (" + counts + ")\n";
  for (const std::string& error : errors) text += "    error: " + error + '\n';
  std::fwrite(text.data(), 1, text.size(), stdout);
}

int run_check(const std::vector<std::string>& paths) {
  if (paths.empty()) return usage();
  bool all_ok = true;
  for (const std::string& path : paths) {
    if (is_metrics_path(path)) {
      const epi::obs::MetricsCheckResult result =
          epi::obs::check_metrics_file(path);
      print_check(path, result.ok,
                  std::to_string(result.counters) + " counters, " +
                      std::to_string(result.gauges) + " gauges, " +
                      std::to_string(result.histograms) + " histograms",
                  result.errors);
      all_ok = all_ok && result.ok;
    } else {
      const epi::obs::TraceCheckResult result =
          epi::obs::check_trace_file(path);
      print_check(path, result.ok,
                  std::to_string(result.events) + " events: " +
                      std::to_string(result.spans) + " spans, " +
                      std::to_string(result.instants) + " instants, " +
                      std::to_string(result.counters) + " counter samples, " +
                      std::to_string(result.processes) + " processes",
                  result.errors);
      all_ok = all_ok && result.ok;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "report") return run_report(args);
    if (command == "diff") {
      if (args.size() != 2) return usage();
      return run_diff(args[0], args[1]);
    }
    if (command == "check") return run_check(args);
  } catch (const std::exception& error) {
    std::fputs("epitrace: ", stderr);
    std::fputs(error.what(), stderr);
    std::fputc('\n', stderr);
    return 2;
  }
  return usage();
}
