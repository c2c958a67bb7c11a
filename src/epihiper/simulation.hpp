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
// partition of the network (all in-edges of its nodes). Remote infection
// state reaches a rank one way, a ghost-list halo: at construction each
// rank subscribes to the remote sources of its in-edges, and on every
// executed tick each owner sends its subscribers only the deltas of their
// records (new, changed, left-infectious). There is one transmission step
// with two kernels over the same local + ghost records, picked per
// executed tick from the global infectious density (DESIGN.md §9, §14):
//   - push, while fewer than 2% of persons are infectious: only the
//     susceptible out-neighbours of infectious sources are evaluated. A
//     counting scatter puts the (edge, source) hits in edge order and a
//     galloping forward search over the CSR offsets finds each target, so
//     a tick costs O(hits + target groups x log gap);
//   - pull, at or above 2%: a rescan of every local susceptible's
//     in-edges against a person-indexed record lookup, which touches fewer
//     edges than pushing once most persons are infected or immune.
// Within-host progressions come from a calendar: each rank keeps its
// pending progressions in buckets by due tick, so a tick visits only the
// progressions scheduled for it. Globally quiescent tick ranges (no due
// progression, seed, infectious record, owed exchange or intervention
// wake-up on any rank) are skipped without touching person state; a rank
// with nothing else pending bids its earliest bucket with a live entry.
// Every rank's skip bid and infectious count ride one end-of-tick
// allgatherv, so all ranks skip and switch kernels on the same tick.
//
// All randomness is keyed by (seed, replicate, person, tick) — stateless
// streams, no draw ever depends on a previous draw's position — which
// makes results *identical for any rank count and either kernel* (a
// property the tests rely on) and is what lets skipped ticks consume
// nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "epihiper/disease_model.hpp"
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

struct SimulationConfig {
  Tick num_ticks = 120;
  std::uint64_t seed = 1;
  std::uint32_t replicate = 0;
  std::vector<SeedSpec> seeds;
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
  /// Bytes of per-tick ghost-delta payload this rank sent, on push and
  /// pull ticks alike (a subset of communication_bytes; zero in serial
  /// runs).
  std::uint64_t ghost_exchange_bytes = 0;
  /// Per-tick count of candidate edges the transmission kernel evaluated:
  /// on push ticks the edges pushed from infectious sources (local +
  /// ghost) into this rank's partition, on pull ticks every in-edge of
  /// every susceptible local person (counted whether or not its source is
  /// infectious), and 0 on skipped ticks. broadcast_ticks/ghost_ticks
  /// below say how many ticks used each rule.
  std::vector<std::uint64_t> frontier_edges_per_tick;
  /// Computational work performed by this rank: candidate edges, the
  /// persons a pull tick scans, the target groups a push tick finds, and
  /// the progression-calendar entries fired or skipped as stale. It leaves
  /// out the per-person passes that remain (seeding's county scan, the
  /// interventions' compliance and tracing passes), so it follows the
  /// transmission and progression work, not all compute time. The
  /// strong-scaling model's numerator (bench_fig7_scaling).
  std::uint64_t work_units = 0;
  /// After a parallel merge: the largest single rank's work_units — the
  /// compute-bound critical path.
  std::uint64_t max_rank_work_units = 0;

  // --- Progression and tick accounting ----------------------------------
  /// Within-host progressions scheduled (one per transition into a state
  /// with an exit).
  std::uint64_t events_scheduled = 0;
  /// Scheduled progressions that happened.
  std::uint64_t events_fired = 0;
  /// Scheduled progressions superseded by another transition of the same
  /// person first; scheduled == fired + stale + still pending at exit.
  std::uint64_t events_stale = 0;
  /// Ticks advanced without touching person state (globally quiescent).
  /// Rank-identical in parallel runs — the skip decision is collective.
  std::uint64_t ticks_skipped = 0;
  /// Ticks that actually executed; executed + skipped == num_ticks.
  std::uint64_t ticks_executed = 0;
  /// Executed ticks that ran the pull kernel (broadcast_ticks; the name
  /// predates the one halo, and nothing is broadcast) and the push kernel
  /// (ghost_ticks). Both kernels read the ghost halo. The split is
  /// rank-identical (the switch keys on a gathered count).
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
  /// Quiescence hint for tick skipping: the earliest future tick at which
  /// this intervention might act. The default — "next tick" — disables
  /// tick skipping while the intervention is installed, which is always
  /// correct. Override to return a later tick (e.g. a fixed start tick)
  /// and the engine may skip up to it. May be rank-local: the global skip
  /// decision takes the minimum of every rank's bid, so divergent hints
  /// are safe. Must not mutate state.
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
  /// The rank that owns person p (0 in a serial run).
  std::size_t owner(PersonId p) const {
    return partitioning_ == nullptr ? 0 : partitioning_->partition_of(p);
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
  /// `until`. Local persons only.
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
    // Tick of the pending progression; max() when none is pending.
    Tick next_transition_tick = std::numeric_limits<Tick>::max();
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
  /// The transmission step. Snapshots the local infectious records in
  /// ascending person order (tick_records_), exchanges the halo deltas and
  /// appends the active ghost records (parallel runs), then runs the pull
  /// kernel if the global infectious count gathered at the end of the last
  /// executed tick reaches 2% of the network, else the push kernel. The
  /// count is the same on every rank, so every rank picks the same kernel.
  void step_transmissions();
  void step_transmissions_pull();
  void step_transmissions_push();
  /// The per-candidate body of both kernels, for in-edge e (contact c) of
  /// susceptible local person p from the source in record `slot`, given
  /// p's row of the ω lookup and σ: filters on ω, then on the edge's
  /// dynamic state, then on Eq (1)'s ρ, and appends a surviving candidate
  /// and adds its ρ to rate_sum. Both kernels visit a target's candidates
  /// in ascending EdgeIndex order, so they collect the same ρ values in
  /// the same positions and every RNG draw is identical.
  void add_candidate(EdgeIndex e, const Contact& c, PersonId p,
                     std::uint32_t slot, std::size_t omega_row, double sigma,
                     double& rate_sum);
  void exchange_ghost_deltas();
  void build_ghost_plan(const Partitioning& partitioning);
  /// Rebuilds the per-tick SoA mirror (slot_* arrays) of `records` for the
  /// transmission inner loops: premultiplied source infectivity, state,
  /// isolation flags, person ids, indexed by record slot.
  void build_record_soa(const std::vector<InfectiousInfo>& records);
  /// Fires every progression due this tick, in ascending person order:
  /// the live entries of this tick's calendar bucket. Frees the bucket.
  void step_progressions();
  /// Frees the calendar bucket of a skipped tick, which must hold stale
  /// entries only.
  void release_skipped_bucket(Tick t);
  void apply_interventions();
  /// The earliest future tick at which this rank might need to do any
  /// work: frontier/halo activity, pending seeds, interventions'
  /// quiescence hints, the earliest calendar bucket with a live entry.
  Tick next_active_tick() const;
  /// The end-of-tick collective: one allgatherv of every rank's
  /// (next_active_tick, local infectious count). Stores the global count
  /// for the next tick's kernel choice and returns the earliest bid.
  Tick agree_next_tick();
  void transition_person(PersonId p, HealthStateId new_state, PersonId cause);
  /// The (person, tick) stream for one purpose: Rng(seed).derive({replicate,
  /// p, tick}).derive({purpose}).
  Rng person_rng(PersonId p, std::uint64_t purpose) const;
  InfectiousInfo infectious_record(PersonId p) const;
  /// Gillespie draw for one susceptible target after its candidates
  /// (candidate_rho_/candidate_slots_, in ascending EdgeIndex order) have
  /// been collected; shared verbatim by both kernels so their RNG
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
  // Progression calendar, one bucket per tick: calendar_[t] lists the
  // local persons whose progression was scheduled for tick t, in
  // scheduling order. An entry is live while the person's
  // next_transition_tick is still t; a superseded progression leaves a
  // stale entry behind. Progressions due at or after num_ticks never fire
  // and stay out of it. A bucket is freed when its tick is passed.
  std::vector<std::vector<PersonId>> calendar_;
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

  // --- Pull-kernel state (allocated on the first pull tick) --------------
  // person -> record slot + 1, 0 = none; all zero outside the pull scan.
  std::vector<std::uint32_t> infectious_lookup_;

  // --- Ghost-list halo state (parallel runs; read by both kernels) ------
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

  // --- Kernel switch and quiescence skipping ------------------------------
  // Global infectious count gathered at the end of the last executed tick.
  std::int64_t infectious_total_ = 0;
  std::vector<Tick> seed_ticks_;  // sorted unique pending-seed ticks

  // --- Per-tick scratch, hoisted out of the hot loops --------------------
  std::vector<InfectiousInfo> tick_records_;   // current local (+ghost) view
  // SoA mirror of the current records (build_record_soa): the kernels'
  // inner loops touches only these dense arrays, not the 12-byte AoS wire
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
  // Push kernel: each record slot's locally owned out-edges, then the
  // tick's hits packed by pack_hit (hit_order.hpp) in edge order, and the
  // block cursors order_hits scatters them with.
  std::vector<std::span<const EdgeIndex>> slot_out_edges_;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint32_t> hit_blocks_;
  std::vector<double> candidate_rho_;
  std::vector<std::uint32_t> candidate_slots_;

  std::vector<std::vector<PersonId>> entered_by_state_;
  std::vector<std::int64_t> local_state_counts_;
  std::optional<std::vector<std::int64_t>> cached_global_counts_;

  std::vector<std::shared_ptr<Intervention>> interventions_;
  obs::MetricsRegistry* metrics_ = nullptr;
  SimOutput output_;
  std::uint64_t intervention_log_bytes_ = 0;  // grows with scheduled changes
};

}  // namespace epi
