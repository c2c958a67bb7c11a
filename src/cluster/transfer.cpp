#include "cluster/transfer.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace epi {

void GlobusTransfer::enable_resilience(const FaultInjector* injector,
                                       RetryPolicy policy,
                                       ResilienceLedger* ledger) {
  faults_ = injector;
  retry_ = policy;
  fault_ledger_ = ledger;
}

void GlobusTransfer::enable_trace(obs::TraceRecorder* trace, std::uint32_t pid,
                                  obs::MetricsRegistry* metrics) {
  trace_ = trace;
  trace_pid_ = pid;
  metrics_ = metrics;
}

void GlobusTransfer::emit_record(const TransferRecord& record,
                                 bool degraded) const {
  if (trace_ != nullptr) {
    obs::TraceArgs args;
    args["attempts"] = static_cast<std::uint64_t>(record.attempts);
    args["bytes"] = record.bytes;
    if (degraded) args["degraded"] = true;
    if (record.retry_wait_s > 0.0) args["retry_wait_s"] = record.retry_wait_s;
    trace_->complete(trace_pid_, record.to_remote ? 0U : 1U,
                     record.description, "wan", clock_hours_,
                     record.seconds / 3600.0, std::move(args));
  }
  if (metrics_ != nullptr) {
    metrics_->add("wan.transfers");
    metrics_->add(record.to_remote ? "wan.bytes_to_remote"
                                   : "wan.bytes_to_home",
                  record.bytes);
    if (record.attempts > 1) {
      metrics_->add("wan.retries", record.attempts - 1);
    }
    metrics_->observe("wan.transfer_s", record.seconds);
  }
}

double GlobusTransfer::attempt_seconds(std::uint64_t bytes,
                                       double throughput_factor) const {
  return link_.per_transfer_overhead_s +
         static_cast<double>(bytes) /
             (link_.bandwidth_mbytes_per_s * 1e6 * throughput_factor);
}

double GlobusTransfer::transfer(const std::string& description,
                                std::uint64_t bytes, bool to_remote) {
  EPI_REQUIRE(link_.bandwidth_mbytes_per_s > 0.0, "zero-bandwidth link");
  // Without an injector (or with a disabled one) the first attempt
  // succeeds at nominal throughput. Zero bytes still pay the per-transfer
  // overhead.
  const std::uint64_t seq = transfer_seq_++;
  double total_s = 0.0;
  double wait_s = 0.0;
  std::uint32_t attempt = 1;
  while (true) {
    const WanAttemptFault fault = faults_ != nullptr
                                      ? faults_->wan_attempt(seq, attempt)
                                      : WanAttemptFault{};
    if (!fault.fail) {
      if (fault.throughput_factor < 1.0 && fault_ledger_ != nullptr) {
        fault_ledger_->record(FaultKind::kWanDegraded, 0.0, description);
      }
      total_s += attempt_seconds(bytes, fault.throughput_factor);
      ledger_.push_back(TransferRecord{description, bytes, total_s, to_remote,
                                       attempt, wait_s});
      emit_record(ledger_.back(), fault.throughput_factor < 1.0);
      if (attempt > 1 && fault_ledger_ != nullptr) {
        fault_ledger_->add_retry_wait_seconds(wait_s);
      }
      return total_s;
    }
    // A failed attempt still burns its fixed overhead before the error
    // surfaces (session died mid-flight).
    total_s += link_.per_transfer_overhead_s;
    if (fault_ledger_ != nullptr) {
      fault_ledger_->record(FaultKind::kWanFailure, 0.0, description);
    }
    if (retry_.give_up(attempt, wait_s)) {
      EPI_REQUIRE(false, "WAN transfer '" << description << "' failed after "
                                          << attempt << " attempts");
    }
    const double delay = retry_.delay_s(attempt, faults_->jitter(seq, attempt));
    total_s += delay;
    wait_s += delay;
    if (fault_ledger_ != nullptr) {
      fault_ledger_->record(FaultKind::kWanRetry, 0.0, description);
    }
    ++attempt;
  }
}

std::uint64_t GlobusTransfer::total_bytes_to_remote() const {
  std::uint64_t total = 0;
  for (const auto& record : ledger_) {
    if (record.to_remote) total += record.bytes;
  }
  return total;
}

std::uint64_t GlobusTransfer::total_bytes_to_home() const {
  std::uint64_t total = 0;
  for (const auto& record : ledger_) {
    if (!record.to_remote) total += record.bytes;
  }
  return total;
}

double GlobusTransfer::total_seconds() const {
  double total = 0.0;
  for (const auto& record : ledger_) total += record.seconds;
  return total;
}

double GlobusTransfer::total_seconds_to_remote() const {
  double total = 0.0;
  for (const auto& record : ledger_) {
    if (record.to_remote) total += record.seconds;
  }
  return total;
}

double GlobusTransfer::total_seconds_to_home() const {
  double total = 0.0;
  for (const auto& record : ledger_) {
    if (!record.to_remote) total += record.seconds;
  }
  return total;
}

}  // namespace epi
