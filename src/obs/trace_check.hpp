// Structural validation of emitted trace/metrics JSON — the golden-file
// checks shared by tests/test_obs.cpp and `epitrace check`.
//
// A trace passes when it is a Chrome trace_event document: an object with
// a "traceEvents" array whose events carry ph/pid/tid/ts, whose
// timestamps are monotone non-decreasing within every (pid, tid) lane,
// and whose 'B'/'E' spans pair up (every 'E' closes an open 'B', nothing
// left open at the end). Flow chains ('s'/'t'/'f' sharing an id) must be
// well-formed: every step/end follows a start, timestamps never run
// backwards along a chain, and no chain is left dangling. Metrics pass
// when they are the registry snapshot shape with internally consistent
// histograms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace epi::obs {

struct TraceCheckResult {
  bool ok = false;
  std::vector<std::string> errors;
  std::size_t events = 0;     // non-metadata events
  std::size_t spans = 0;      // matched B/E pairs plus X events
  std::size_t instants = 0;   // 'i'
  std::size_t counters = 0;   // 'C'
  std::size_t flows = 0;      // completed flow chains ('f' matching an 's')
  std::size_t processes = 0;  // named via process_name metadata
};

/// Validates a parsed trace document.
TraceCheckResult check_trace_json(const Json& doc);
/// Reads, parses, and validates a trace file; parse failures are reported
/// as errors, not exceptions.
TraceCheckResult check_trace_file(const std::string& path);

struct MetricsCheckResult {
  bool ok = false;
  std::vector<std::string> errors;
  std::size_t counters = 0;
  std::size_t gauges = 0;
  std::size_t histograms = 0;
};

MetricsCheckResult check_metrics_json(const Json& doc);
MetricsCheckResult check_metrics_file(const std::string& path);

}  // namespace epi::obs
