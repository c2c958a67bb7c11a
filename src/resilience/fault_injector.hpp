// Deterministic fault injection for the two-cluster workflow model.
//
// The production system (paper §IV) ran every night under a hard 8am
// deadline on infrastructure that does fail: compute nodes crash, Globus
// WAN flows stall or degrade, and PostgreSQL sessions drop. This module
// generates a *seeded, deterministic* fault schedule so those failure
// modes can be injected into the Slurm DES, the transfer model, and the
// person-database layer, and so any faulty run is exactly reproducible
// from (workflow seed, fault seed).
//
// Determinism contract: every draw is keyed by stable labels (node id,
// transfer sequence number, region hash, attempt number) through the
// splittable RNG, never by call order. Querying faults in a different
// order — or not at all — cannot change any other component's stream.
// With `FaultSpec::enabled == false` (the default) the injector reports
// no faults and consumes no randomness anywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace epi {

/// Knobs for the injected fault environment. Defaults model a perfect
/// world; paper-plausible production rates are node MTBF >= 30 days,
/// WAN failure <= 2%, and rare DB session drops.
struct FaultSpec {
  /// Master switch, read only by FaultInjector. When false the injector
  /// schedules no outage and reports no WAN, DB or simulation fault,
  /// whatever the other knobs say. Consumers never branch on it: they run
  /// their one path, which with nothing injected reproduces the
  /// fault-free results byte for byte.
  bool enabled = false;
  /// Fault-schedule seed, independent of the workflow seed so the same
  /// night can be replayed under different weather.
  std::uint64_t seed = 0xFA171ULL;

  /// Mean time between failures of one compute node, in hours
  /// (exponential inter-failure times). 0 disables node crashes.
  /// 30 days = 720 h is the pessimistic end of production hardware.
  double node_mtbf_hours = 0.0;
  /// Time a crashed node stays down before rejoining the pool.
  double node_repair_hours = 2.0;

  /// Probability that one WAN transfer attempt fails outright
  /// (checksum mismatch, endpoint fault) and must be retried.
  double wan_failure_prob = 0.0;
  /// Probability that an attempt succeeds but at degraded throughput
  /// (congested Internet2 path).
  double wan_degraded_prob = 0.0;
  /// Throughput multiplier applied to degraded attempts (0 < f <= 1).
  double wan_degraded_factor = 0.25;

  /// Probability that opening a person-DB session fails transiently and
  /// must be retried (connection drop / server hiccup).
  double db_drop_prob = 0.0;

  /// Probability that one simulation job attempt dies for reasons below
  /// the scheduler's radar (OOM, filesystem hiccup); used by the
  /// calibration cycle's retry wrapper on the home cluster.
  double sim_failure_prob = 0.0;
};

/// One scheduled outage of one node: down at `down_hours`, back in the
/// pool at `up_hours`.
struct NodeOutage {
  std::uint32_t node = 0;
  double down_hours = 0.0;
  double up_hours = 0.0;
};

/// Outcome of one WAN transfer attempt.
struct WanAttemptFault {
  bool fail = false;
  double throughput_factor = 1.0;  // < 1 when degraded
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec = {});

  bool enabled() const { return spec_.enabled; }
  const FaultSpec& spec() const { return spec_; }

  /// Deterministic per-node outage schedule over [0, horizon_hours),
  /// sorted by down time. Node n's failures depend only on (seed, n).
  std::vector<NodeOutage> node_outages(std::uint32_t nodes,
                                       double horizon_hours) const;

  /// Fault state of attempt `attempt` (1-based) of the `transfer_seq`-th
  /// transfer issued by one GlobusTransfer instance.
  WanAttemptFault wan_attempt(std::uint64_t transfer_seq,
                              std::uint32_t attempt) const;

  /// Whether the `attempt_seq`-th connection attempt against `region`'s
  /// person database drops.
  bool db_drop(const std::string& region, std::uint64_t attempt_seq) const;

  /// Whether attempt `attempt` (1-based) of simulation job `job_seq`
  /// dies transiently.
  bool sim_failure(std::uint64_t job_seq, std::uint32_t attempt) const;

  /// Seeded uniform [0, 1) for retry-backoff jitter, keyed by
  /// (stream, attempt) so independent retry loops do not correlate.
  double jitter(std::uint64_t stream, std::uint32_t attempt) const;

 private:
  FaultSpec spec_;
};

/// Stable 64-bit FNV-1a (labels must not depend on std::hash, whose
/// value is implementation-defined).
std::uint64_t stable_label_hash(const std::string& text);

}  // namespace epi
