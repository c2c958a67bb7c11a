// Observability session: one TraceRecorder + one MetricsRegistry bound to
// an output directory.
//
// The nightly engine (and anything else that wants a trace) takes a
// non-owning `obs::Session*`; null means disabled and costs nothing. The
// environment hook `EPI_TRACE=<dir>` lets existing binaries record a run
// without code changes: from_env() returns a session writing
// <dir>/trace.json (Chrome trace_event format, Perfetto loadable) and
// <dir>/metrics.json (sorted-key snapshot). `EPI_TRACE_FLOW=0` disables
// causal flow edges (farm submit→start→finish, service request→work)
// while keeping spans and counters; any other value — or unset — leaves
// them on.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace epi::obs {

struct SessionOptions {
  /// Directory trace.json / metrics.json are written into. Created at
  /// session construction when non-empty, so a bad path fails up front
  /// with a clear message instead of a late stream error.
  std::string dir;
  /// Zeroes the wall half of the dual clock so emitted files are
  /// byte-reproducible; pair with NightlyConfig::deterministic_timing.
  bool deterministic_timing = false;
  /// Emit causal flow edges ('s'/'t'/'f'); EPI_TRACE_FLOW=0 turns this off.
  bool flow = true;
};

class Session {
 public:
  explicit Session(SessionOptions options);

  TraceRecorder& trace() { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }
  const std::string& dir() const { return options_.dir; }
  bool flow() const { return options_.flow; }

  std::string trace_path() const { return options_.dir + "/trace.json"; }
  std::string metrics_path() const { return options_.dir + "/metrics.json"; }

  /// Writes trace.json and metrics.json into dir().
  void write() const {
    trace_.write(trace_path());
    metrics_.write(metrics_path());
  }

  /// Session for EPI_TRACE=<dir>, or nullptr when the variable is unset
  /// or empty. Honors EPI_TRACE_FLOW (default on).
  static std::unique_ptr<Session> from_env(bool deterministic_timing = false);

 private:
  SessionOptions options_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
};

}  // namespace epi::obs
