// EpiHiper simulation engine.
//
// An agent-based discrete-time simulator of disease spread over a contact
// network (paper §III): per tick (= one day) it computes probabilistic
// transmissions across active contacts via the propensity law of Eq (1)
// with Gillespie sampling, advances within-host disease progressions, and
// applies interventions. It records every state transition — "each line
// ... includes the tick of the transition event, the identifier of the
// person, their exit state, and the identifier of the person causing the
// state transition" — from which dendrograms (transmission trees) and
// county-level aggregates are derived.
//
// The engine is partition-parallel over mpilite: each rank owns one
// partition of the network (all in-edges of its nodes). Cross-rank
// infection visibility uses a ghost-list halo exchange: at construction
// each rank computes the exact set of remote persons appearing as sources
// on its in-edges (its ghosts) and subscribes to their owners; per tick,
// owners send only the *deltas* of their boundary infectious records
// (became infectious / record changed / left infectious) to subscribing
// ranks via alltoallv. Transmission compute is frontier-proportional: the
// local infectious set is maintained incrementally and only susceptible
// out-neighbors of currently-infectious sources are evaluated. Per tick the
// frontier kernel costs O(hits + target groups x log gap): a counting
// scatter puts the (edge, source) hits in edge order, and a galloping
// forward search over the CSR offsets finds each group's target from the
// previous one (DESIGN.md §9).
//
// On top of the ghost halo sits the *event-driven core* (ExaCorona
// direction, DESIGN.md §14): within-host progressions are scheduled as
// timed events in a deterministic (tick, kind, person) queue instead of
// rescanning every person every tick, and globally quiescent tick ranges
// — empty frontier, empty queues, no pending seeds / interventions /
// isolation requests on any rank, agreed via an mpilite min-allreduce —
// are skipped without touching person state. ExchangeMode::kAdaptive
// additionally re-picks broadcast vs ghost-delta each executed tick from
// the global frontier density. The legacy broadcast-everything kernel
// (allgatherv of the full infectious set + full person/edge rescan,
// ExchangeMode::kBroadcast) and the scan-based ghost mode (kGhostDelta)
// are retained as A/B baselines; all modes draw identical RNG streams and
// produce byte-identical epidemic output (tested).
//
// All randomness is keyed by (seed, replicate, person, tick) — stateless
// streams, no draw ever depends on a previous draw's position — which
// makes results *identical for any rank count* (a property the tests rely
// on) and is what lets skipped ticks consume nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "epihiper/disease_model.hpp"
#include "epihiper/event_queue.hpp"
#include "mpilite/comm.hpp"
#include "network/contact_network.hpp"
#include "network/partition.hpp"
#include "synthpop/population.hpp"

namespace epi::obs {
class MetricsRegistry;
}

namespace epi {

inline constexpr PersonId kNoPerson = 0xFFFFFFFF;

/// One recorded state transition (the EpiHiper output-file line).
struct TransitionEvent {
  Tick tick = 0;
  PersonId person = kNoPerson;
  HealthStateId exit_state = kNoState;  // the state entered at `tick`
  PersonId infector = kNoPerson;        // set for transmission events only
};

/// Per-county seeding instruction: expose `count` susceptible persons of
/// county index `county` at tick `tick`.
struct SeedSpec {
  std::uint16_t county = 0;
  std::uint32_t count = 0;
  Tick tick = 0;
};

/// How ranks learn about remote infectious contacts each tick, and whether
/// the engine runs tick-driven (scan) or event-driven (queue + skip).
/// Every mode produces byte-identical epidemic output (tested); they
/// differ only in wire traffic and per-tick compute.
enum class ExchangeMode : std::uint8_t {
  /// Ghost-list halo exchange of boundary infectious *deltas* plus the
  /// push-based candidate frontier; per-tick progression scan.
  kGhostDelta,
  /// Legacy baseline: allgatherv the full infectious set to every rank and
  /// rescan every local person and in-edge. Kept for A/B benchmarking and
  /// the byte-identity tests.
  kBroadcast,
  /// Event-driven core (the production mode): ghost-delta exchange,
  /// progressions from the timed-event queue, quiescent tick ranges
  /// skipped under a global min-allreduce agreement.
  kEvent,
  /// Event-driven core with a per-executed-tick broadcast-vs-ghost switch
  /// keyed on global frontier density (DESIGN.md §14); the decision is an
  /// allreduced count, so it is deterministic and rank-identical.
  kAdaptive,
};

/// Canonical lowercase name ("ghost", "broadcast", "event", "adaptive").
const char* exchange_mode_name(ExchangeMode mode);

/// Inverse of exchange_mode_name; throws epi::Error on unknown names.
ExchangeMode parse_exchange_mode(std::string_view name);

/// The mode SimulationConfig defaults to: EPI_EXCHANGE when set (one of
/// broadcast|ghost|event|adaptive), else kGhostDelta. Callers that assign
/// config.exchange explicitly (A/B benches, mode tests) are unaffected.
ExchangeMode default_exchange_mode();

struct SimulationConfig {
  Tick num_ticks = 120;
  std::uint64_t seed = 1;
  std::uint32_t replicate = 0;
  std::vector<SeedSpec> seeds;
  /// Record individual transition events (raw output). Aggregates are
  /// always recorded.
  bool record_transitions = true;
  ExchangeMode exchange = default_exchange_mode();
};

/// Simulation output for one replicate.
struct SimOutput {
  std::vector<TransitionEvent> transitions;  // ordered by tick
  /// Per-tick count of new transmissions (the incidence curve).
  std::vector<std::uint64_t> new_infections_per_tick;
  /// Per-tick engine memory footprint in bytes (Fig 10 instrumentation).
  std::vector<std::uint64_t> memory_bytes_per_tick;
  /// Per-tick wall-clock seconds (Fig 7/8 instrumentation).
  std::vector<double> seconds_per_tick;
  /// Final health state of every person.
  std::vector<HealthStateId> final_states;
  std::uint64_t total_infections = 0;
  std::uint64_t communication_bytes = 0;  // mpilite traffic (scaling model)
  /// Bytes of per-tick ghost-delta payload this rank sent (a subset of
  /// communication_bytes; zero in broadcast mode and serial runs).
  std::uint64_t ghost_exchange_bytes = 0;
  /// Per-tick count of candidate edges the transmission kernel evaluated —
  /// the frontier size. Semantics per mode:
  ///   kGhostDelta — edges pushed from currently-infectious sources (local
  ///     + ghost) into this rank's partition;
  ///   kBroadcast  — every in-edge of every susceptible local person (the
  ///     full rescan), counted whether or not its source is infectious;
  ///   kEvent      — as kGhostDelta on executed ticks, exactly 0 on
  ///     skipped ticks (nothing is touched);
  ///   kAdaptive   — per tick, whichever kernel the density switch picked
  ///     (so the series is a mix of the two counting rules; use
  ///     broadcast_ticks/ghost_ticks below to attribute them).
  std::vector<std::uint64_t> frontier_edges_per_tick;
  /// Computational work performed by this rank: edge propensity
  /// evaluations plus per-node scans. On a dedicated-core machine,
  /// per-tick compute time is proportional to this (the strong-scaling
  /// model's numerator).
  std::uint64_t work_units = 0;
  /// After a parallel merge: the largest single rank's work_units — the
  /// compute-bound critical path.
  std::uint64_t max_rank_work_units = 0;

  // --- Event-driven-core accounting (zero under the legacy modes) --------
  /// Progression events pushed into the timed-event queue.
  std::uint64_t events_scheduled = 0;
  /// Events popped and fired (the progression actually happened).
  std::uint64_t events_fired = 0;
  /// Events popped but superseded by a later transition (lazy
  /// invalidation); scheduled == fired + stale + still-queued at exit.
  std::uint64_t events_stale = 0;
  /// Ticks advanced without touching person state (globally quiescent).
  /// Rank-identical in parallel runs — the skip decision is collective.
  std::uint64_t ticks_skipped = 0;
  /// Ticks that actually executed; executed + skipped == num_ticks.
  std::uint64_t ticks_executed = 0;
  /// kAdaptive only: executed ticks resolved to each kernel. The split is
  /// deterministic (the switch keys on an allreduced infectious count).
  std::uint64_t broadcast_ticks = 0;
  std::uint64_t ghost_ticks = 0;
};

class Simulation;

/// An intervention: external modification of simulation state (paper
/// Appendix D: trigger + action ensemble). `apply` runs once per tick on
/// every rank after transmissions and progressions; implementations read
/// and mutate state through the Simulation's intervention API and must be
/// SPMD-deterministic (same control flow on all ranks; collective calls
/// allowed).
class Intervention {
 public:
  virtual ~Intervention() = default;
  virtual std::string name() const = 0;
  virtual void apply(Simulation& sim) = 0;
  /// Quiescence hint for the event-driven core: the earliest future tick
  /// at which this intervention might act. The default — "next tick" —
  /// disables tick skipping while the intervention is installed, which is
  /// always correct. Override to return a later tick (e.g. a fixed start
  /// tick) and the scheduler may skip up to it. May be rank-local: the
  /// global skip decision min-allreduces every rank's bid, so divergent
  /// hints are safe. Must not mutate state.
  virtual Tick quiescent_until(const Simulation& sim) const;
};

/// The simulator. Construct once per replicate and call run().
///
/// Serial use: pass comm == nullptr (the engine owns the whole network).
/// Parallel use: construct inside an mpilite rank body with the shared
/// Partitioning; the engine owns partition comm->rank().
class Simulation {
 public:
  Simulation(const ContactNetwork& network, const Population& population,
             const DiseaseModel& model, SimulationConfig config,
             mpilite::Comm* comm = nullptr,
             const Partitioning* partitioning = nullptr);

  void add_intervention(std::shared_ptr<Intervention> intervention);

  /// Runs all ticks; returns this rank's output (global output on rank 0
  /// after merge — see parallel.hpp — or the full output when serial).
  SimOutput run();

  // --- Intervention / inspection API -------------------------------------
  // (public so interventions and tests can drive the runtime; everything
  // here operates on the local partition unless stated otherwise).

  Tick tick() const { return tick_; }
  const SimulationConfig& config() const { return config_; }
  const ContactNetwork& network() const { return network_; }
  const Population& population() const { return population_; }
  const DiseaseModel& model() const { return model_; }

  PersonId local_begin() const { return local_begin_; }
  PersonId local_end() const { return local_end_; }
  bool is_local(PersonId p) const {
    return p >= local_begin_ && p < local_end_;
  }

  HealthStateId health(PersonId p) const;
  /// Persons (local) that entered `state` during the current tick.
  const std::vector<PersonId>& entered_this_tick(HealthStateId state) const;

  /// Global occupancy count of a state (collective in parallel runs).
  std::int64_t global_state_count(HealthStateId state);

  /// Per-edge dynamic active flag (Table V: edge.active rw).
  bool edge_active(EdgeIndex e) const { return edge_active_[e] != 0; }
  void set_edge_active(EdgeIndex e, bool active);

  /// Per-edge dynamic weight scaling (Table V: edge.weight rw); the
  /// effective propensity weight is contact.weight x this factor.
  /// Allocated lazily on first write.
  void scale_edge_weight(EdgeIndex e, double factor);
  double edge_weight_scale(EdgeIndex e) const;

  /// Forces a health-state transition (Appendix D: initialization and
  /// scripted actions may set node.healthState directly). The within-host
  /// progression out of the new state is scheduled as usual. Local only.
  void force_transition(PersonId p, HealthStateId new_state);

  /// Closes or reopens an entire activity context (SC closes school +
  /// college; global, must be called on all ranks).
  void set_context_closed(ActivityType context, bool closed);
  bool context_closed(ActivityType context) const;

  /// Isolates person p (all non-home contacts inactive) through tick
  /// `until`. Works for remote persons too: the request is routed to the
  /// owner at the next tick boundary.
  void isolate(PersonId p, Tick until);
  bool is_isolated(PersonId p) const;  // local persons only

  /// Marks person p stay-at-home compliant; while stay-at-home is active,
  /// compliant persons keep only home contacts. Local persons only.
  void set_stay_home_compliant(PersonId p, bool compliant);
  void set_stay_home_active(bool active);
  bool stay_home_active() const { return stay_home_active_; }

  /// Node infectivity / susceptibility scaling (Table V rw attributes).
  void scale_infectivity(PersonId p, double factor);
  void scale_susceptibility(PersonId p, double factor);

  /// Named node traits (Table V nodeTrait[...]); local persons only.
  void set_node_trait(const std::string& trait, PersonId p, std::uint8_t v);
  std::uint8_t node_trait(const std::string& trait, PersonId p) const;

  /// User-defined variables (Table V); process-local, rank-replicated.
  void set_variable(const std::string& name, double value);
  double variable(const std::string& name) const;

  /// Deterministic per-(person, purpose) coin flip, identical on every
  /// rank count; `purpose` distinguishes independent decisions.
  bool person_coin(PersonId p, std::uint64_t purpose, double probability) const;

  /// In-edges of a local person (for contact tracing); the returned edge
  /// indices index network().contact().
  std::pair<EdgeIndex, EdgeIndex> in_edges(PersonId p) const;

  /// Whether edge e is currently transmissible given all dynamic state
  /// (edge flag, context closures, isolation and stay-home of both ends).
  /// Source-side flags must be supplied for remote sources.
  bool edge_transmissible(EdgeIndex e, PersonId target, bool source_isolated,
                          bool source_stay_home) const;

  /// Total bytes of dynamic engine state (Fig 10 memory accounting).
  std::uint64_t memory_footprint_bytes() const;

  /// Optional observability sink: per-tick ghost-exchange bytes and
  /// frontier sizes are recorded as "epihiper.*" counters. Null (the
  /// default) is the exact unobserved path.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  mpilite::Comm* comm() { return comm_; }

 private:
  struct NodeState {
    HealthStateId health;
    float infectivity_scale = 1.0f;
    float susceptibility_scale = 1.0f;
    Tick next_transition_tick = -1;
    HealthStateId next_state = kNoState;
  };

  // Infectious-record exchange unit: effective infectivity of one
  // currently infectious person. Also the wire format of the ghost-delta
  // protocol: `state == kNoState` is the left-infectious tombstone. Field
  // order packs to 12 bytes with no padding (wire bytes must be fully
  // initialized).
  struct InfectiousInfo {
    PersonId person = kNoPerson;
    float infectivity_scale = 0.0f;
    HealthStateId state = kNoState;
    std::uint8_t isolated = 0;
    std::uint8_t stay_home = 0;
  };

  void seed_infections();
  /// Mode dispatch for the transmission step. All modes first snapshot the
  /// local infectious records in ascending person order (tick_records_).
  /// kBroadcast runs the full-rescan kernel; kGhostDelta and kEvent run
  /// the push-based frontier kernel (with the halo exchange in parallel
  /// runs); kAdaptive re-picks one of the two kernels per executed tick
  /// from the allreduced global infectious count — see
  /// step_transmissions_adaptive for the switch and the halo resync that
  /// keeps ghost state consistent across kernel changes.
  void step_transmissions();
  void step_transmissions_broadcast();
  void step_transmissions_frontier();
  void step_transmissions_adaptive();
  void exchange_ghost_deltas();
  void build_ghost_plan(const Partitioning& partitioning);
  /// Rebuilds the per-tick SoA mirror (slot_* arrays) of `records` for the
  /// transmission inner loops: premultiplied source infectivity, state,
  /// isolation flags, person ids, indexed by record slot.
  void build_record_soa(const std::vector<InfectiousInfo>& records);
  /// Forgets all advertised/ghost halo state (every record absent) so the
  /// next exchange_ghost_deltas() re-sends the full current boundary set —
  /// the resync run after adaptive broadcast ticks left the halo stale.
  /// Collective in effect: all ranks reset on the same tick because the
  /// adaptive decision is global.
  void reset_ghost_halo();
  void step_progressions();
  void step_progressions_events();
  void apply_interventions();
  void exchange_remote_isolation_requests();
  /// The earliest future tick at which this rank might need to do any
  /// work: queue head, frontier/halo activity, pending seeds,
  /// interventions' quiescence hints, queued isolation requests. The
  /// global skip target is the min-allreduce of every rank's value.
  Tick next_active_tick() const;
  void transition_person(PersonId p, HealthStateId new_state, PersonId cause);
  Rng person_rng(PersonId p) const;
  InfectiousInfo infectious_record(PersonId p) const;
  /// Gillespie draw for one susceptible target after its candidates
  /// (candidate_rho_/candidate_slots_, in ascending EdgeIndex order) have
  /// been collected; shared verbatim by all kernels so their RNG
  /// consumption is identical. Sources are read from the slot_* SoA arrays
  /// (build_record_soa must cover the current records).
  void finish_candidate(PersonId p, double rate_sum);

  const ContactNetwork& network_;
  const Population& population_;
  const DiseaseModel& model_;
  SimulationConfig config_;
  mpilite::Comm* comm_;
  const Partitioning* partitioning_ = nullptr;

  PersonId local_begin_ = 0;
  PersonId local_end_ = 0;
  EdgeIndex edge_offset_ = 0;

  // Dense (from * state_count + source) lookups built from the model's
  // transmission list for the propensity hot loop.
  std::vector<HealthStateId> transmission_to_;
  std::vector<double> transmission_omega_;

  Tick tick_ = 0;
  std::vector<NodeState> nodes_;  // indexed by (p - local_begin_)
  std::vector<std::uint8_t> edge_active_;
  std::vector<float> edge_weight_scale_;  // lazy; empty = all 1.0
  std::vector<Tick> isolated_until_;          // local persons
  std::vector<std::uint8_t> stay_home_;       // local persons
  bool stay_home_active_ = false;
  std::array<bool, kActivityTypeCount> context_closed_{};
  std::map<std::string, std::vector<std::uint8_t>> node_traits_;
  std::map<std::string, double> variables_;

  // --- Incrementally maintained local infectious set (both kernels) -----
  // Membership updates happen in transition_person (O(1) swap-remove), so
  // no per-tick full scan is needed to enumerate infectious persons.
  std::vector<PersonId> local_infectious_;       // unordered members
  std::vector<std::uint32_t> local_infectious_pos_;  // local idx -> pos+1

  // --- Broadcast-mode state (allocated only under kBroadcast) ------------
  std::vector<InfectiousInfo> global_infectious_;
  std::vector<std::uint32_t> infectious_lookup_;  // person -> index+1, 0=none

  // --- Ghost-list halo state (allocated only under kGhostDelta) ----------
  std::vector<PersonId> ghost_persons_;        // sorted remote in-edge sources
  std::vector<InfectiousInfo> ghost_records_;  // per ghost; kNoState = absent
  std::vector<std::uint32_t> ghost_active_;      // ghost indices, unordered
  std::vector<std::uint32_t> ghost_active_pos_;  // ghost idx -> pos+1
  // Subscribers: for each local person, the ranks holding it as a ghost
  // (CSR, ranks ascending). Only boundary persons have entries.
  std::vector<std::uint64_t> subscriber_offsets_;  // local_count + 1
  std::vector<std::int32_t> subscriber_ranks_;
  // Last records advertised to subscribers, sorted by person; the per-tick
  // diff against the current records yields the delta traffic.
  std::vector<InfectiousInfo> advertised_;

  // --- Event-driven core (kEvent / kAdaptive only) -----------------------
  bool event_driven_ = false;   // progressions from the queue + tick skipping
  EventQueue event_queue_;
  std::vector<Tick> seed_ticks_;  // sorted unique pending-seed ticks
  // kAdaptive: whether the advertised/ghost halo matches what subscribers
  // last received; false after a broadcast tick (no deltas flowed), forcing
  // reset_ghost_halo() before the next ghost-kernel exchange.
  bool ghost_halo_synced_ = true;

  // --- Per-tick scratch, hoisted out of the hot loops --------------------
  std::vector<InfectiousInfo> tick_records_;   // current local (+ghost) view
  // SoA mirror of the current records (build_record_soa): the frontier
  // inner loop touches only these dense arrays, not the 12-byte AoS wire
  // structs. slot_iota_ is the premultiplied effective source infectivity
  // (state infectivity x dynamic scale), computed once per record per tick
  // instead of once per candidate edge.
  std::vector<PersonId> slot_person_;
  std::vector<double> slot_iota_;
  std::vector<HealthStateId> slot_state_;
  std::vector<std::uint8_t> slot_isolated_;
  std::vector<std::uint8_t> slot_stay_home_;
  std::vector<InfectiousInfo> current_advert_;
  std::vector<std::vector<InfectiousInfo>> delta_outbox_;
  std::vector<PersonId> sorted_infectious_scratch_;
  // Frontier kernel: each record slot's locally owned out-edges, then the
  // tick's hits packed by pack_hit (hit_order.hpp) in edge order, and the
  // block cursors order_hits scatters them with.
  std::vector<std::span<const EdgeIndex>> slot_out_edges_;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint32_t> hit_blocks_;
  std::vector<double> candidate_rho_;
  std::vector<std::uint32_t> candidate_slots_;

  std::vector<std::vector<PersonId>> entered_by_state_;
  std::vector<std::pair<PersonId, Tick>> pending_remote_isolations_;
  std::vector<std::int64_t> local_state_counts_;
  std::optional<std::vector<std::int64_t>> cached_global_counts_;

  std::vector<std::shared_ptr<Intervention>> interventions_;
  obs::MetricsRegistry* metrics_ = nullptr;
  SimOutput output_;
  std::uint64_t intervention_log_bytes_ = 0;  // grows with scheduled changes
};

}  // namespace epi
