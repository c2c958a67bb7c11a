// Shared machinery of the end-to-end benchmark: the clock, the span
// recorder used by traced runs, the operation loop, order statistics,
// output checks and the metric catalogue.
//
// Every layer is measured from outside: a span wraps a call the benchmark
// makes into a layer's public function. Nothing here reaches into src/.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy scale: one operation per workload, for the benchmark's own tests.
  bool smoke = false;
  /// Scratch space inside the checkout (temporary files, traces).
  std::string out_dir = ".bench_build/perfbench";
};

/// The seed whose output digests are pinned in the workloads.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// A span: one call into a layer, with the span that caused it.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the recorder's spans, -1 = root
};

/// Keeps spans in memory and writes them out at the end of the run. A
/// disabled recorder only times (the end-to-end runs record nothing).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Runs `fn` inside a span named `name`; returns its wall seconds.
  template <typename Fn>
  double time(const std::string& name, Fn&& fn) {
    const int id = open(name);
    const double start = now_s();
    fn();
    const double end = now_s();
    close(id, start, end);
    return end - start;
  }

  /// Chrome trace_event JSON ('X' events in microseconds, parent named in
  /// args), loadable in Perfetto or chrome://tracing.
  void write_chrome(const std::string& path) const;

 private:
  int open(const std::string& name);
  void close(int id, double start, double end);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Raised when an operation's output fails its check; the operation is
/// then counted as failed.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what);

/// Per-operation timings and failure counts of one run.
struct OpLog {
  std::vector<double> plain;   // successful untraced operations
  std::vector<double> traced;  // successful traced operations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::size_t succeeded() const { return plain.size() + traced.size(); }

  /// Counts a run outside the timed loop (a scaling sample) whose output
  /// was checked; returns `ok`.
  bool record_check(bool ok, const std::string& what);
};

/// Runs `op(t, traced)`, which returns the seconds of the operation proper,
/// until `options.seconds` have elapsed and at least 4 operations were
/// attempted (smoke: 1, or 2 when tracing). In a traced run every second
/// operation is traced: `t` is then `tracer`, otherwise a disabled tracer,
/// so the tracing overhead is measured in the same process. An operation
/// that throws counts as failed.
template <typename Op>
void repeat_ops(const Options& options, Tracer& tracer, OpLog& log, Op&& op);

double median(std::vector<double> values);

/// The highest percentile that has at least ten samples beyond it (the
/// 11th-slowest sample), but never below the median: with fewer than 21
/// samples that percentile is at or below the 50th, and the median is
/// returned.
double tail(std::vector<double> values);

/// 4-worker efficiency, median(serial) / (workers x median(parallel)), from
/// samples taken alternately (P S P ... S P: `serial_runs` serial ones, one
/// parallel more) so both sides see the same host speed; the host drifts
/// over seconds.
template <typename Serial, typename Parallel>
double interleaved_efficiency(int serial_runs, int workers, Serial&& serial,
                              Parallel&& parallel) {
  std::vector<double> serial_s, parallel_s;
  parallel_s.push_back(parallel());
  for (int i = 0; i < serial_runs; ++i) {
    serial_s.push_back(serial());
    parallel_s.push_back(parallel());
  }
  return median(serial_s) / (workers * median(parallel_s));
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Hex digest of a byte string (the repository's stable 128-bit hash).
std::string digest(const std::string& bytes);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric catalogue; BENCHMARK.json lists the same names and units.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// What one workload run measured. Per-layer metrics a workload does not
/// exercise stay 0.
struct Outcome {
  OpLog ops;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Traced runs: (layer, seconds per operation) rows of the breakdown,
  /// printed with unattributed time as its own row.
  std::vector<std::pair<std::string, double>> breakdown;
};

/// Fills the metrics common to every workload from the operation log and
/// the set-up samples: the end-to-end timings from the plain operations,
/// and the tracing overhead, traced median / plain median - 1.
void set_common_metrics(Outcome& outcome, const std::vector<double>& setup);

/// One row of a traced run's breakdown: a layer and its seconds in each of
/// the first traced operations, in order.
using BreakdownRow = std::pair<std::string, std::vector<double>>;

/// Sets a traced run's breakdown of one operation: each row's median, then
/// the median over the traced operations of what the rows leave of each,
/// as the `unattributed` row and bench.unattributed_s. Rows timed outside
/// the operation can overshoot it by host drift (35% seen on short
/// operations), which is reported; overshoot beyond half of the operation
/// means the rows count time twice, and fails the run.
void set_breakdown(Outcome& outcome, const std::vector<BreakdownRow>& rows);

// ---------------------------------------------------------------------------

template <typename Op>
void repeat_ops(const Options& options, Tracer& tracer, OpLog& log, Op&& op) {
  const std::size_t min_ops = options.smoke ? (tracer.enabled() ? 2 : 1) : 4;
  const std::size_t max_ops = options.smoke ? min_ops : 1000;
  Tracer untraced(false);
  const double start = now_s();
  for (std::size_t index = 0;
       index < max_ops &&
       (index < min_ops || now_s() - start < options.seconds);
       ++index) {
    const bool traced = tracer.enabled() && index % 2 == 1;
    ++log.attempted;
    try {
      const double seconds = op(traced ? tracer : untraced, traced);
      (traced ? log.traced : log.plain).push_back(seconds);
    } catch (const std::exception& error) {
      ++log.failed;
      std::fprintf(stderr, "perfbench: operation %zu failed: %s\n", index,
                   error.what());
    }
  }
}

}  // namespace perfbench
