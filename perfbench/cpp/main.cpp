// perfbench — end-to-end benchmark of the EpiScale library.
//
//   perfbench --workload <epidemic|build|nightly|scenarios> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 they are the
// per-layer ones, and the run also writes a Chrome-format trace of its
// spans into <out-dir>/traces/ and prints the per-layer breakdown with
// unattributed time as its own row. Exits non-zero when an operation
// failed or an output check did not hold.


#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<epidemic|build|nightly|scenarios> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out-dir <dir>]\n",
               message);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

/// The numbers must measure the defaults: refuse the variables that change
/// exchange mode, worker counts, rank transport, tracing or the service.
void refuse_overrides() {
  static const char* const kRefused[] = {
      "EPI_EXCHANGE",       "EPI_JOBS",    "EPI_MPILITE_BACKEND",
      "EPI_MPILITE_CHECK",  "EPI_TRACE",   "EPI_TRACE_FLOW",
  };
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string item = *entry;
    const std::string name = item.substr(0, item.find('='));
    bool refused = name.rfind("EPI_SERVICE_", 0) == 0 ||
                   name.rfind("EPI_MPILITE_CHECK", 0) == 0;
    for (const char* banned : kRefused) refused = refused || name == banned;
    if (refused) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures the defaults and sets worker counts itself\n",
                   name.c_str());
      std::exit(2);
    }
  }
}

void print_value(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  refuse_overrides();
  perfbench::Tracer tracer(options.trace);
  using Runner = perfbench::Outcome (*)(const Options&, perfbench::Tracer&);
  Runner runner = nullptr;
  if (options.workload == "epidemic") runner = perfbench::run_epidemic;
  if (options.workload == "build") runner = perfbench::run_build;
  if (options.workload == "nightly") runner = perfbench::run_nightly;
  if (options.workload == "scenarios") runner = perfbench::run_scenarios;
  if (runner == nullptr) usage(("unknown workload " + options.workload).c_str());

  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.out_dir);
    outcome = runner(options, tracer);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: operation seconds:");
  for (double seconds : outcome.ops.plain) std::fprintf(stderr, " %.3f", seconds);
  std::fprintf(stderr, "; traced:");
  for (double seconds : outcome.ops.traced) std::fprintf(stderr, " %.3f", seconds);
  std::fprintf(stderr, "\n");
  const unsigned nproc = std::thread::hardware_concurrency();
  outcome.per_layer["bench.nproc"] = nproc;

  std::printf("# perfbench workload=%s seed=%lu seconds=%g trace=%d smoke=%d "
              "nproc=%u compiler=\"g++ %s\" build_type=%s operations=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? 1 : 0, nproc, __VERSION__,
              PERFBENCH_BUILD_TYPE, outcome.ops.succeeded());

  const bool traced = options.trace;
  const auto& defs = traced ? perfbench::per_layer_metrics()
                            : perfbench::end_to_end_metrics();
  const auto& values = traced ? outcome.per_layer : outcome.end_to_end;
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const perfbench::MetricDef& def : defs) known = known || name == def.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalogue\n",
                   name.c_str());
      return 1;
    }
  }
  if (traced) {
    const std::filesystem::path dir =
        std::filesystem::path(options.out_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / (options.workload + "-seed" +
                                     std::to_string(options.seed) + ".json"))
                                 .string();
    tracer.write_chrome(path);
    double sum = 0.0;
    std::printf("# breakdown of one operation (medians over traced "
                "operations; trace %s)\n",
                path.c_str());
    for (const auto& [layer, seconds] : outcome.breakdown) {
      std::printf("#   %-40s %10.4f s\n", layer.c_str(), seconds);
      sum += seconds;
    }
    std::printf("#   %-40s %10.4f s\n", "sum of rows", sum);
  }

  // Per-layer metrics a workload does not exercise read 0; every end-to-end
  // metric must have been measured.
  const auto value_of = [&](const perfbench::MetricDef& def) {
    const auto it = values.find(def.name);
    return it != values.end() ? it->second : traced ? 0.0 : std::nan("");
  };
  bool correct = outcome.ops.failed == 0 && outcome.ops.attempted > 0;
  for (const perfbench::MetricDef& def : defs) {
    correct = correct && std::isfinite(value_of(def));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long>(outcome.ops.attempted),
              static_cast<unsigned long>(outcome.ops.failed));
  const char* separator = "";
  for (const perfbench::MetricDef& def : defs) {
    std::printf("%s\"%s\": {\"value\": ", separator, def.name);
    print_value(value_of(def));
    std::printf(", \"unit\": \"%s\"}", def.unit);
    separator = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
