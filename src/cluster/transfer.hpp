// Inter-cluster data transfer model (the Globus substitute).
//
// All data movement between the home and remote clusters goes through
// this model (paper §IV: "data transfer between the home cluster and
// remote super-computing cluster utilizes the Globus platform"): the 2 TB
// one-time population/network shipment, the 100 MB - 8.7 GB nightly
// configurations, and the 120 MB - 70 GB summarized outputs coming back.
// A simple bandwidth + per-transfer overhead model; every transfer is
// logged so Table I/II volume rows can be reproduced from the ledger.
// Even a zero-byte transfer pays the per-transfer overhead (session
// setup and checksums are size-independent).
//
// Each transfer runs one attempt loop. With a FaultInjector attached
// (enable_resilience), attempts may fail outright or run at degraded
// throughput, failed attempts are retried under a RetryPolicy with
// seeded backoff jitter, and exhaustion throws. Without an injector, or
// with a disabled one, the first attempt succeeds at nominal throughput.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "resilience/retry_policy.hpp"

namespace epi::obs {
class MetricsRegistry;
class TraceRecorder;
}

namespace epi {

struct WanLinkSpec {
  /// Sustained wide-area throughput. Internet2 between UVA and PSC
  /// sustains several Gbit/s for Globus/GridFTP flows.
  double bandwidth_mbytes_per_s = 400.0;
  /// Per-transfer fixed cost (auth, checksums, session setup).
  double per_transfer_overhead_s = 5.0;
};

struct TransferRecord {
  std::string description;
  std::uint64_t bytes = 0;
  double seconds = 0.0;       // total, including failed attempts + backoff
  bool to_remote = true;      // direction: home -> remote or back
  std::uint32_t attempts = 1; // 1 = first try succeeded
  double retry_wait_s = 0.0;  // backoff portion of `seconds`
};

/// A directional transfer service with a ledger.
class GlobusTransfer {
 public:
  explicit GlobusTransfer(WanLinkSpec link = {}) : link_(link) {}

  /// Attaches fault injection + retry. The injector must outlive this
  /// object; `ledger` (optional) receives per-attempt fault events.
  void enable_resilience(const FaultInjector* injector, RetryPolicy policy,
                         ResilienceLedger* ledger = nullptr);

  /// Attaches tracing/metrics (nullptr = none; durations are the same). Each
  /// transfer becomes an 'X' span on `pid`, lane 0 (to remote) or 1 (to
  /// home), starting at the clock set by set_clock_hours and lasting the
  /// modeled duration; bytes/attempt counters and a duration histogram go
  /// to `metrics`.
  void enable_trace(obs::TraceRecorder* trace, std::uint32_t pid,
                    obs::MetricsRegistry* metrics = nullptr);

  /// Workflow-clock time the next transfer starts at (trace placement
  /// only; the transfer arithmetic never reads it).
  void set_clock_hours(double hours) { clock_hours_ = hours; }

  /// Executes (models) one transfer; returns its duration in seconds.
  /// With resilience enabled, throws Error when every attempt allowed by
  /// the retry policy fails.
  double transfer(const std::string& description, std::uint64_t bytes,
                  bool to_remote);

  const std::vector<TransferRecord>& ledger() const { return ledger_; }
  std::uint64_t total_bytes_to_remote() const;
  std::uint64_t total_bytes_to_home() const;
  double total_seconds() const;
  /// Per-direction duration totals (resilience reporting needs the WAN
  /// budget split by direction, as Table II reports volumes).
  double total_seconds_to_remote() const;
  double total_seconds_to_home() const;

 private:
  double attempt_seconds(std::uint64_t bytes, double throughput_factor) const;
  void emit_record(const TransferRecord& record, bool degraded) const;

  WanLinkSpec link_;
  std::vector<TransferRecord> ledger_;
  const FaultInjector* faults_ = nullptr;
  RetryPolicy retry_;
  ResilienceLedger* fault_ledger_ = nullptr;
  std::uint64_t transfer_seq_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  double clock_hours_ = 0.0;
};

}  // namespace epi
