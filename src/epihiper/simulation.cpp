#include "epihiper/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "epihiper/hit_order.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace epi {

namespace {
// RNG purpose labels: distinct streams per decision kind.
constexpr std::uint64_t kPurposeTransmission = 0x5452414eULL;  // "TRAN"
constexpr std::uint64_t kPurposeProgression = 0x50524f47ULL;   // "PROG"
constexpr std::uint64_t kPurposeSeed = 0x53454544ULL;          // "SEED"
constexpr std::uint64_t kPurposeCoin = 0x434f494eULL;          // "COIN"
constexpr int kTagIsolation = 7;

// kAdaptive density switch: broadcast when global_infectious * kAdaptiveDenom
// >= network nodes (i.e. >= 2% of persons infectious). The 2% was tuned
// when the frontier kernel still sorted its hits, where above it the push
// frontier lost to the branch-light full rescan; the linear-time frontier
// kernel kept the threshold unchanged. The decision input is an allreduced
// count, so every rank switches on the same tick.
constexpr std::int64_t kAdaptiveDenom = 50;

/// Wire format of the owner-routed isolation requests.
struct IsolationRequest {
  PersonId person;
  Tick until;
};
static_assert(std::is_trivially_copyable_v<IsolationRequest>);
}  // namespace

const char* exchange_mode_name(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kGhostDelta: return "ghost";
    case ExchangeMode::kBroadcast: return "broadcast";
    case ExchangeMode::kEvent: return "event";
    case ExchangeMode::kAdaptive: return "adaptive";
  }
  return "unknown";
}

ExchangeMode parse_exchange_mode(std::string_view name) {
  if (name == "ghost") return ExchangeMode::kGhostDelta;
  if (name == "broadcast") return ExchangeMode::kBroadcast;
  if (name == "event") return ExchangeMode::kEvent;
  if (name == "adaptive") return ExchangeMode::kAdaptive;
  EPI_REQUIRE(false, "unknown exchange mode '"
                         << name
                         << "' (expected broadcast|ghost|event|adaptive)");
  return ExchangeMode::kGhostDelta;  // unreachable
}

ExchangeMode default_exchange_mode() {
  const char* value = env_raw("EPI_EXCHANGE");
  if (value == nullptr || value[0] == '\0') return ExchangeMode::kGhostDelta;
  return parse_exchange_mode(value);
}

Tick Intervention::quiescent_until(const Simulation& sim) const {
  return sim.tick() + 1;  // conservative: may act every tick
}

Simulation::Simulation(const ContactNetwork& network,
                       const Population& population, const DiseaseModel& model,
                       SimulationConfig config, mpilite::Comm* comm,
                       const Partitioning* partitioning)
    : network_(network),
      population_(population),
      model_(model),
      config_(std::move(config)),
      comm_(comm) {
  EPI_REQUIRE(network_.node_count() == population_.person_count(),
              "network and population disagree on person count");
  model_.validate();
  EPI_REQUIRE(config_.num_ticks > 0, "simulation needs at least one tick");
  EPI_REQUIRE((comm_ == nullptr) == (partitioning == nullptr),
              "parallel runs need both a communicator and a partitioning");

  EdgeIndex edge_count = network_.edge_count();
  if (comm_ != nullptr) {
    EPI_REQUIRE(partitioning->size() == static_cast<std::size_t>(comm_->size()),
                "partition count must equal rank count");
    const Partition& mine =
        partitioning->part(static_cast<std::size_t>(comm_->rank()));
    local_begin_ = mine.node_begin;
    local_end_ = mine.node_end;
    partitioning_ = partitioning;
    edge_offset_ = mine.edge_begin;
    edge_count = mine.edge_count();
  } else {
    local_begin_ = 0;
    local_end_ = network_.node_count();
    edge_offset_ = 0;
  }
  // The frontier kernel packs a rank-local edge offset into 32 bits.
  EPI_REQUIRE(edge_count <= std::numeric_limits<std::uint32_t>::max(),
              "a rank's " << edge_count << " in-edges do not fit 32-bit "
                          << "local edge offsets; partition over more ranks");
  edge_active_.assign(edge_count, 1);

  const std::size_t local_count = local_end_ - local_begin_;
  nodes_.resize(local_count);
  for (auto& node : nodes_) {
    node.health = model_.initial_state();
  }
  isolated_until_.assign(local_count, -1);
  stay_home_.assign(local_count, 0);
  entered_by_state_.resize(model_.state_count());
  local_state_counts_.assign(model_.state_count(), 0);
  local_state_counts_[model_.initial_state()] =
      static_cast<std::int64_t>(local_count);

  local_infectious_pos_.assign(local_count, 0);
  if (model_.state(model_.initial_state()).infectious()) {
    local_infectious_.reserve(local_count);
    for (PersonId p = local_begin_; p < local_end_; ++p) {
      local_infectious_.push_back(p);
      local_infectious_pos_[p - local_begin_] =
          static_cast<std::uint32_t>(local_infectious_.size());
    }
  }

  event_driven_ = config_.exchange == ExchangeMode::kEvent ||
                  config_.exchange == ExchangeMode::kAdaptive;
  if (config_.exchange == ExchangeMode::kBroadcast) {
    // The legacy kernel's person-indexed lookup spans the whole network —
    // the O(network nodes)-per-rank cost the ghost halo replaces. Under
    // kAdaptive it is allocated lazily on the first broadcast tick.
    infectious_lookup_.assign(network_.node_count(), 0);
  } else if (comm_ != nullptr) {
    build_ghost_plan(*partitioning);
  }

  // Pending-seed schedule for the quiescence scan: ascending unique ticks.
  for (const SeedSpec& spec : config_.seeds) {
    seed_ticks_.push_back(spec.tick);
  }
  std::sort(seed_ticks_.begin(), seed_ticks_.end());
  seed_ticks_.erase(std::unique(seed_ticks_.begin(), seed_ticks_.end()),
                    seed_ticks_.end());

  static_assert(std::is_trivially_copyable_v<InfectiousInfo> &&
                    sizeof(InfectiousInfo) == 12,
                "InfectiousInfo is a packed wire struct");

  // Dense (from-state, source-state) -> transmission lookup for the hot
  // propensity loop.
  const std::size_t s = model_.state_count();
  transmission_to_.assign(s * s, kNoState);
  transmission_omega_.assign(s * s, 0.0);
  for (const Transmission& t : model_.transmissions()) {
    transmission_to_[t.from * s + t.source] = t.to;
    transmission_omega_[t.from * s + t.source] = t.omega;
  }
}

void Simulation::build_ghost_plan(const Partitioning& partitioning) {
  // Ghosts: the exact remote persons this rank needs infectious records
  // for — sources of its in-edges owned elsewhere (the partition halo).
  ghost_persons_ = compute_ghost_sources(
      network_, partitioning, static_cast<std::size_t>(comm_->rank()));
  ghost_records_.resize(ghost_persons_.size());
  for (std::size_t i = 0; i < ghost_persons_.size(); ++i) {
    ghost_records_[i].person = ghost_persons_[i];
  }
  ghost_active_pos_.assign(ghost_persons_.size(), 0);

  // Tell each owner which of its persons we want (one-time handshake);
  // the inbound want-lists become this rank's subscriber index.
  std::vector<std::vector<PersonId>> want(
      static_cast<std::size_t>(comm_->size()));
  for (const PersonId g : ghost_persons_) {
    want[partitioning.partition_of(g)].push_back(g);
  }
  const auto inbox = comm_->alltoallv(want);

  const std::size_t local_count = local_end_ - local_begin_;
  subscriber_offsets_.assign(local_count + 1, 0);
  for (const auto& wanted : inbox) {
    for (const PersonId p : wanted) {
      EPI_ASSERT(is_local(p), "subscriber handshake wants a non-local person");
      ++subscriber_offsets_[p - local_begin_ + 1];
    }
  }
  for (std::size_t i = 0; i < local_count; ++i) {
    subscriber_offsets_[i + 1] += subscriber_offsets_[i];
  }
  subscriber_ranks_.resize(subscriber_offsets_[local_count]);
  std::vector<std::uint64_t> cursor(subscriber_offsets_.begin(),
                                    subscriber_offsets_.end() - 1);
  for (std::size_t s = 0; s < inbox.size(); ++s) {
    for (const PersonId p : inbox[s]) {
      subscriber_ranks_[cursor[p - local_begin_]++] =
          static_cast<std::int32_t>(s);
    }
  }
  delta_outbox_.resize(static_cast<std::size_t>(comm_->size()));
}

Simulation::InfectiousInfo Simulation::infectious_record(PersonId p) const {
  const NodeState& node = nodes_[p - local_begin_];
  InfectiousInfo info;
  info.person = p;
  info.state = node.health;
  info.infectivity_scale = node.infectivity_scale;
  info.isolated = is_isolated(p) ? 1 : 0;
  info.stay_home = stay_home_[p - local_begin_];
  return info;
}

void Simulation::add_intervention(std::shared_ptr<Intervention> intervention) {
  EPI_REQUIRE(intervention != nullptr, "null intervention");
  interventions_.push_back(std::move(intervention));
}

Rng Simulation::person_rng(PersonId p) const {
  return Rng(config_.seed)
      .derive({config_.replicate, p, static_cast<std::uint64_t>(tick_)});
}

bool Simulation::person_coin(PersonId p, std::uint64_t purpose,
                             double probability) const {
  Rng rng =
      Rng(config_.seed).derive({kPurposeCoin, config_.replicate, p, purpose});
  return rng.bernoulli(probability);
}

HealthStateId Simulation::health(PersonId p) const {
  EPI_REQUIRE(is_local(p), "health() is local-only; person " << p);
  return nodes_[p - local_begin_].health;
}

const std::vector<PersonId>& Simulation::entered_this_tick(
    HealthStateId state) const {
  EPI_REQUIRE(state < entered_by_state_.size(), "unknown state " << state);
  return entered_by_state_[state];
}

std::int64_t Simulation::global_state_count(HealthStateId state) {
  EPI_REQUIRE(state < model_.state_count(), "unknown state " << state);
  if (!cached_global_counts_.has_value()) {
    if (comm_ == nullptr) {
      cached_global_counts_ = local_state_counts_;
    } else {
      // Exact integer sum: the double path loses precision above 2^53,
      // which population-scale occupancy counts can exceed.
      cached_global_counts_ = comm_->allreduce(
          std::span<const std::int64_t>(local_state_counts_),
          mpilite::ReduceOp::kSum);
    }
  }
  return (*cached_global_counts_)[state];
}

void Simulation::set_edge_active(EdgeIndex e, bool active) {
  EPI_REQUIRE(e >= edge_offset_ && e - edge_offset_ < edge_active_.size(),
              "edge " << e << " not owned by this rank");
  edge_active_[e - edge_offset_] = active ? 1 : 0;
  intervention_log_bytes_ += sizeof(EdgeIndex) + 1;  // scheduled-change log
}

void Simulation::scale_edge_weight(EdgeIndex e, double factor) {
  EPI_REQUIRE(e >= edge_offset_ && e - edge_offset_ < edge_active_.size(),
              "edge " << e << " not owned by this rank");
  if (edge_weight_scale_.empty()) {
    edge_weight_scale_.assign(edge_active_.size(), 1.0f);
  }
  edge_weight_scale_[e - edge_offset_] *= static_cast<float>(factor);
  intervention_log_bytes_ += sizeof(EdgeIndex) + sizeof(float);
}

double Simulation::edge_weight_scale(EdgeIndex e) const {
  EPI_REQUIRE(e >= edge_offset_ && e - edge_offset_ < edge_active_.size(),
              "edge " << e << " not owned by this rank");
  return edge_weight_scale_.empty()
             ? 1.0
             : edge_weight_scale_[e - edge_offset_];
}

void Simulation::force_transition(PersonId p, HealthStateId new_state) {
  EPI_REQUIRE(is_local(p), "force_transition is local-only; person " << p);
  EPI_REQUIRE(new_state < model_.state_count(), "unknown state " << new_state);
  if (nodes_[p - local_begin_].health == new_state) return;
  transition_person(p, new_state, kNoPerson);
}

void Simulation::set_context_closed(ActivityType context, bool closed) {
  context_closed_[static_cast<std::size_t>(context)] = closed;
}

bool Simulation::context_closed(ActivityType context) const {
  return context_closed_[static_cast<std::size_t>(context)];
}

void Simulation::isolate(PersonId p, Tick until) {
  if (is_local(p)) {
    Tick& slot = isolated_until_[p - local_begin_];
    slot = std::max(slot, until);
    // Scheduled-change accounting: an isolation schedules a deactivation
    // and a reactivation record for each of the person's contacts (the
    // deferred action lists that make intervention-heavy runs grow in
    // memory, Fig 10).
    intervention_log_bytes_ +=
        2 * (network_.in_end(p) - network_.in_begin(p)) *
        (sizeof(EdgeIndex) + sizeof(Tick));
  } else {
    pending_remote_isolations_.emplace_back(p, until);
  }
}

bool Simulation::is_isolated(PersonId p) const {
  EPI_REQUIRE(is_local(p), "is_isolated() is local-only; person " << p);
  return isolated_until_[p - local_begin_] >= tick_;
}

void Simulation::set_stay_home_compliant(PersonId p, bool compliant) {
  EPI_REQUIRE(is_local(p), "stay-home compliance is local-only");
  stay_home_[p - local_begin_] = compliant ? 1 : 0;
}

void Simulation::set_stay_home_active(bool active) {
  stay_home_active_ = active;
}

void Simulation::scale_infectivity(PersonId p, double factor) {
  EPI_REQUIRE(is_local(p), "scale_infectivity is local-only");
  nodes_[p - local_begin_].infectivity_scale *= static_cast<float>(factor);
}

void Simulation::scale_susceptibility(PersonId p, double factor) {
  EPI_REQUIRE(is_local(p), "scale_susceptibility is local-only");
  nodes_[p - local_begin_].susceptibility_scale *= static_cast<float>(factor);
}

void Simulation::set_node_trait(const std::string& trait, PersonId p,
                                std::uint8_t v) {
  EPI_REQUIRE(is_local(p), "node traits are local-only");
  auto [it, inserted] = node_traits_.try_emplace(trait);
  if (inserted) it->second.assign(local_end_ - local_begin_, 0);
  it->second[p - local_begin_] = v;
}

std::uint8_t Simulation::node_trait(const std::string& trait,
                                    PersonId p) const {
  EPI_REQUIRE(is_local(p), "node traits are local-only");
  const auto it = node_traits_.find(trait);
  if (it == node_traits_.end()) return 0;
  return it->second[p - local_begin_];
}

void Simulation::set_variable(const std::string& name, double value) {
  variables_[name] = value;
}

double Simulation::variable(const std::string& name) const {
  const auto it = variables_.find(name);
  return it == variables_.end() ? 0.0 : it->second;
}

std::pair<EdgeIndex, EdgeIndex> Simulation::in_edges(PersonId p) const {
  EPI_REQUIRE(is_local(p), "in_edges is local-only; person " << p);
  return {network_.in_begin(p), network_.in_end(p)};
}

bool Simulation::edge_transmissible(EdgeIndex e, PersonId target,
                                    bool source_isolated,
                                    bool source_stay_home) const {
  if (edge_active_[e - edge_offset_] == 0) return false;
  const Contact& c = network_.contact(e);
  const auto target_context = static_cast<ActivityType>(c.target_activity);
  const auto source_context = static_cast<ActivityType>(c.source_activity);
  if (context_closed(target_context) || context_closed(source_context)) {
    return false;
  }
  const bool home_edge = target_context == ActivityType::kHome &&
                         source_context == ActivityType::kHome;
  if (home_edge) return true;
  if (is_isolated(target) || source_isolated) return false;
  if (stay_home_active_ &&
      (stay_home_[target - local_begin_] != 0 || source_stay_home)) {
    return false;
  }
  return true;
}

std::uint64_t Simulation::memory_footprint_bytes() const {
  std::uint64_t bytes = 0;
  bytes += nodes_.capacity() * sizeof(NodeState);
  bytes += edge_active_.capacity();
  bytes += edge_weight_scale_.capacity() * sizeof(float);
  bytes += isolated_until_.capacity() * sizeof(Tick);
  bytes += stay_home_.capacity();
  // Broadcast mode: the O(network nodes) lookup plus the full gathered
  // infectious set. Ghost mode: halo-sized structures only.
  bytes += infectious_lookup_.capacity() * sizeof(std::uint32_t);
  bytes += global_infectious_.capacity() * sizeof(InfectiousInfo);
  bytes += local_infectious_.capacity() * sizeof(PersonId);
  bytes += local_infectious_pos_.capacity() * sizeof(std::uint32_t);
  bytes += ghost_persons_.capacity() * sizeof(PersonId);
  bytes += ghost_records_.capacity() * sizeof(InfectiousInfo);
  bytes += ghost_active_.capacity() * sizeof(std::uint32_t);
  bytes += ghost_active_pos_.capacity() * sizeof(std::uint32_t);
  bytes += subscriber_offsets_.capacity() * sizeof(std::uint64_t);
  bytes += subscriber_ranks_.capacity() * sizeof(std::int32_t);
  bytes += advertised_.capacity() * sizeof(InfectiousInfo);
  // Event-driven core: the timed-event heap plus the per-tick SoA record
  // slots of the transmission kernels.
  bytes += event_queue_.memory_bytes();
  bytes += slot_person_.capacity() * sizeof(PersonId);
  bytes += slot_iota_.capacity() * sizeof(double);
  bytes += slot_state_.capacity() * sizeof(HealthStateId);
  bytes += slot_isolated_.capacity() + slot_stay_home_.capacity();
  for (const auto& [name, values] : node_traits_) {
    bytes += values.capacity();
  }
  // The transition log is NOT counted: production EpiHiper streams state
  // transitions to the (Lustre) output file as they happen, so resident
  // memory is the network-proportional base plus the scheduled
  // intervention changes — exactly the Fig 10 decomposition.
  bytes += intervention_log_bytes_;
  return bytes;
}

void Simulation::transition_person(PersonId p, HealthStateId new_state,
                                   PersonId cause) {
  NodeState& node = nodes_[p - local_begin_];
  const HealthStateId old_state = node.health;
  --local_state_counts_[old_state];
  ++local_state_counts_[new_state];
  node.health = new_state;
  node.next_transition_tick = -1;
  node.next_state = kNoState;
  entered_by_state_[new_state].push_back(p);
  // Keep the infectious set incremental: O(1) membership updates here
  // instead of a full person scan every tick.
  const bool was_infectious = model_.state(old_state).infectious();
  const bool now_infectious = model_.state(new_state).infectious();
  if (was_infectious != now_infectious) {
    const std::size_t li = p - local_begin_;
    if (now_infectious) {
      local_infectious_.push_back(p);
      local_infectious_pos_[li] =
          static_cast<std::uint32_t>(local_infectious_.size());
    } else {
      const std::uint32_t pos = local_infectious_pos_[li] - 1;
      const PersonId moved = local_infectious_.back();
      local_infectious_[pos] = moved;
      local_infectious_pos_[moved - local_begin_] = pos + 1;
      local_infectious_.pop_back();
      local_infectious_pos_[li] = 0;
    }
  }
  if (config_.record_transitions) {
    output_.transitions.push_back(TransitionEvent{tick_, p, new_state, cause});
  }
  if (cause != kNoPerson) {
    ++output_.total_infections;
    ++output_.new_infections_per_tick.back();
  }
  // Schedule the within-host progression out of the new state.
  Rng rng = person_rng(p).derive({kPurposeProgression});
  HealthStateId next = kNoState;
  Tick dwell = 0;
  if (model_.sample_progression(new_state, population_.age_group(p), rng,
                                &next, &dwell)) {
    node.next_transition_tick = tick_ + dwell;
    node.next_state = next;
    // Event-driven core: the progression becomes a timed event. A
    // superseded earlier event for p (this transition pre-empted it) stays
    // queued and is shed lazily when popped (next_transition_tick no
    // longer matches).
    if (event_driven_) {
      event_queue_.schedule(node.next_transition_tick,
                            EventKind::kProgression, p);
      ++output_.events_scheduled;
    }
  }
}

void Simulation::seed_infections() {
  for (const SeedSpec& spec : config_.seeds) {
    if (spec.tick != tick_ || spec.count == 0) continue;
    // Rank local candidates by a per-person hash so the global selection is
    // identical for any partitioning.
    std::vector<std::pair<std::uint64_t, PersonId>> candidates;
    for (PersonId p = local_begin_; p < local_end_; ++p) {
      if (population_.person(p).county != spec.county) continue;
      if (nodes_[p - local_begin_].health != model_.initial_state()) continue;
      const std::uint64_t h = mix_labels(
          config_.seed, {kPurposeSeed, config_.replicate, spec.county, p,
                         static_cast<std::uint64_t>(tick_)});
      candidates.emplace_back(h, p);
    }
    std::sort(candidates.begin(), candidates.end());
    if (candidates.size() > spec.count) candidates.resize(spec.count);
    if (comm_ != nullptr) {
      // Merge the per-rank shortlists and keep the global top `count`.
      std::vector<std::uint64_t> flat;
      flat.reserve(candidates.size() * 2);
      for (const auto& [h, p] : candidates) {
        flat.push_back(h);
        flat.push_back(p);
      }
      const auto merged = comm_->allgatherv(flat);
      candidates.clear();
      for (std::size_t i = 0; i + 1 < merged.size(); i += 2) {
        candidates.emplace_back(merged[i],
                                static_cast<PersonId>(merged[i + 1]));
      }
      std::sort(candidates.begin(), candidates.end());
      if (candidates.size() > spec.count) candidates.resize(spec.count);
    }
    for (const auto& [h, p] : candidates) {
      if (is_local(p)) transition_person(p, model_.seed_state(), kNoPerson);
    }
  }
}

void Simulation::exchange_remote_isolation_requests() {
  if (comm_ == nullptr) {
    EPI_ASSERT(pending_remote_isolations_.empty(),
               "remote isolation queued in a serial run");
    return;
  }
  // Route each request to the owner rank as typed POD records (no uint64
  // flattening round-trip; half the bytes of the old encoding).
  std::vector<std::vector<IsolationRequest>> outbox(
      static_cast<std::size_t>(comm_->size()));
  for (const auto& [person, until] : pending_remote_isolations_) {
    const std::size_t owner = partitioning_->partition_of(person);
    outbox[owner].push_back(IsolationRequest{person, until});
  }
  pending_remote_isolations_.clear();
  const auto inbox = comm_->alltoallv(outbox);
  for (const auto& messages : inbox) {
    for (const IsolationRequest& request : messages) {
      EPI_ASSERT(is_local(request.person), "misrouted isolation request");
      isolate(request.person, request.until);
    }
  }
}

void Simulation::step_transmissions() {
  // Snapshot the local infectious records in ascending person order (the
  // order the legacy full scan produced them in), shared by all kernels.
  sorted_infectious_scratch_.assign(local_infectious_.begin(),
                                    local_infectious_.end());
  std::sort(sorted_infectious_scratch_.begin(),
            sorted_infectious_scratch_.end());
  tick_records_.clear();
  for (const PersonId p : sorted_infectious_scratch_) {
    tick_records_.push_back(infectious_record(p));
  }
  switch (config_.exchange) {
    case ExchangeMode::kBroadcast:
      step_transmissions_broadcast();
      break;
    case ExchangeMode::kGhostDelta:
    case ExchangeMode::kEvent:
      step_transmissions_frontier();
      break;
    case ExchangeMode::kAdaptive:
      step_transmissions_adaptive();
      break;
  }
}

void Simulation::step_transmissions_adaptive() {
  // Deterministic density switch: identical on every rank because the
  // input is an allreduced global count, never rank-local state.
  std::int64_t global_infectious =
      static_cast<std::int64_t>(local_infectious_.size());
  if (comm_ != nullptr) {
    global_infectious =
        comm_->allreduce(global_infectious, mpilite::ReduceOp::kSum);
  }
  const bool use_broadcast =
      global_infectious * kAdaptiveDenom >=
      static_cast<std::int64_t>(network_.node_count());
  if (metrics_ != nullptr) {
    metrics_->add(use_broadcast ? "epihiper.adaptive_broadcast_ticks"
                                : "epihiper.adaptive_ghost_ticks");
  }
  if (use_broadcast) {
    ++output_.broadcast_ticks;
    if (infectious_lookup_.empty()) {
      infectious_lookup_.assign(network_.node_count(), 0);
    }
    // No deltas flow this tick, so whatever subscribers last saw is stale
    // from here on; the next ghost tick must resync from scratch.
    ghost_halo_synced_ = false;
    step_transmissions_broadcast();
  } else {
    ++output_.ghost_ticks;
    if (!ghost_halo_synced_) {
      reset_ghost_halo();
      ghost_halo_synced_ = true;
    }
    step_transmissions_frontier();
  }
}

void Simulation::reset_ghost_halo() {
  advertised_.clear();
  for (const std::uint32_t gi : ghost_active_) {
    ghost_active_pos_[gi] = 0;
  }
  ghost_active_.clear();
  for (std::size_t i = 0; i < ghost_records_.size(); ++i) {
    InfectiousInfo blank;
    blank.person = ghost_persons_[i];
    ghost_records_[i] = blank;  // state == kNoState: absent
  }
}

void Simulation::build_record_soa(const std::vector<InfectiousInfo>& records) {
  const std::size_t n = records.size();
  slot_person_.resize(n);
  slot_iota_.resize(n);
  slot_state_.resize(n);
  slot_isolated_.resize(n);
  slot_stay_home_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const InfectiousInfo& rec = records[i];
    slot_person_[i] = rec.person;
    slot_state_[i] = rec.state;
    // Same double arithmetic the AoS loop performed per candidate edge:
    // (double) state infectivity x (float->double) dynamic scale.
    slot_iota_[i] =
        model_.state(rec.state).infectivity * rec.infectivity_scale;
    slot_isolated_[i] = rec.isolated;
    slot_stay_home_[i] = rec.stay_home;
  }
}

void Simulation::finish_candidate(PersonId p, double rate_sum) {
  const double rate = model_.transmissibility() * rate_sum;
  if (rate <= 0.0) return;
  // Gillespie: exponential waiting time against the one-tick interval;
  // the causing contact is drawn proportionally to its propensity.
  Rng rng = person_rng(p).derive({kPurposeTransmission});
  if (rng.exponential(rate) >= 1.0) return;
  const std::uint32_t slot = candidate_slots_[rng.discrete(candidate_rho_)];
  const HealthStateId to =
      transmission_to_[nodes_[p - local_begin_].health * model_.state_count() +
                       slot_state_[slot]];
  transition_person(p, to, slot_person_[slot]);
}

void Simulation::step_transmissions_broadcast() {
  // Legacy kernel: every rank receives every rank's infectious records and
  // rescans all of its persons and in-edges.
  for (const InfectiousInfo& info : global_infectious_) {
    infectious_lookup_[info.person] = 0;
  }
  if (comm_ != nullptr) {
    global_infectious_ = comm_->allgatherv(tick_records_);
  } else {
    global_infectious_.assign(tick_records_.begin(), tick_records_.end());
  }
  for (std::size_t i = 0; i < global_infectious_.size(); ++i) {
    infectious_lookup_[global_infectious_[i].person] =
        static_cast<std::uint32_t>(i + 1);
  }
  if (global_infectious_.empty()) return;
  build_record_soa(global_infectious_);

  const std::size_t state_count = model_.state_count();
  const bool weights_scaled = !edge_weight_scale_.empty();
  std::uint64_t work = 0;
  for (PersonId p = local_begin_; p < local_end_; ++p) {
    const NodeState& node = nodes_[p - local_begin_];
    const HealthState& state = model_.state(node.health);
    ++work;
    if (!state.susceptible()) continue;
    const std::uint64_t degree = network_.in_end(p) - network_.in_begin(p);
    work += degree;
    output_.frontier_edges_per_tick.back() += degree;
    candidate_rho_.clear();
    candidate_slots_.clear();
    const std::size_t omega_row = node.health * state_count;
    const double sigma = state.susceptibility * node.susceptibility_scale;
    double rate_sum = 0.0;
    for (EdgeIndex e = network_.in_begin(p); e < network_.in_end(p); ++e) {
      const Contact& c = network_.contact(e);
      const std::uint32_t slot = infectious_lookup_[c.source];
      if (slot == 0) continue;
      const double omega = transmission_omega_[omega_row + slot_state_[slot - 1]];
      if (omega <= 0.0) continue;
      if (!edge_transmissible(e, p, slot_isolated_[slot - 1] != 0,
                              slot_stay_home_[slot - 1] != 0)) {
        continue;
      }
      // Eq (1): rho = T * w_e * sigma(Ps) * iota(Pi) * omega, with contact
      // duration T expressed as a fraction of the one-day tick and w_e the
      // static weight times any dynamic scaling. sigma is loop-invariant
      // and hoisted; its operand position in the product is unchanged, so
      // every rho is the bit-identical double the per-edge form produced.
      const double duration_fraction = c.duration_minutes / 1440.0;
      const double weight =
          weights_scaled ? c.weight * edge_weight_scale_[e - edge_offset_]
                         : c.weight;
      const double rho =
          duration_fraction * weight * sigma * slot_iota_[slot - 1] * omega;
      if (rho <= 0.0) continue;
      rate_sum += rho;
      candidate_rho_.push_back(rho);
      candidate_slots_.push_back(slot - 1);
    }
    finish_candidate(p, rate_sum);
  }
  output_.work_units += work;
}

void Simulation::exchange_ghost_deltas() {
  // Records this rank must advertise: its infectious persons that appear
  // as ghosts somewhere (subscriber list non-empty). tick_records_ holds
  // the local records in ascending person order at this point.
  current_advert_.clear();
  for (const InfectiousInfo& rec : tick_records_) {
    const std::size_t li = rec.person - local_begin_;
    if (subscriber_offsets_[li + 1] > subscriber_offsets_[li]) {
      current_advert_.push_back(rec);
    }
  }

  for (auto& box : delta_outbox_) box.clear();
  const auto send_to_subscribers = [&](const InfectiousInfo& rec) {
    const std::size_t li = rec.person - local_begin_;
    for (std::uint64_t s = subscriber_offsets_[li];
         s < subscriber_offsets_[li + 1]; ++s) {
      delta_outbox_[static_cast<std::size_t>(subscriber_ranks_[s])].push_back(
          rec);
    }
  };
  // Merge-diff against what subscribers last saw (both lists sorted by
  // person): new records and field changes go out as upserts; records that
  // vanished go out as tombstones (state == kNoState). Field changes cover
  // isolation expiry and infectivity rescaling while a person stays
  // infectious — correctness depends on them, not just on became/left.
  std::size_t a = 0;
  std::size_t c = 0;
  while (a < advertised_.size() || c < current_advert_.size()) {
    if (a == advertised_.size() ||
        (c < current_advert_.size() &&
         current_advert_[c].person < advertised_[a].person)) {
      send_to_subscribers(current_advert_[c]);
      ++c;
    } else if (c == current_advert_.size() ||
               advertised_[a].person < current_advert_[c].person) {
      InfectiousInfo tombstone;
      tombstone.person = advertised_[a].person;
      send_to_subscribers(tombstone);
      ++a;
    } else {
      const InfectiousInfo& was = advertised_[a];
      const InfectiousInfo& now = current_advert_[c];
      if (was.state != now.state ||
          was.infectivity_scale != now.infectivity_scale ||
          was.isolated != now.isolated || was.stay_home != now.stay_home) {
        send_to_subscribers(now);
      }
      ++a;
      ++c;
    }
  }
  advertised_.assign(current_advert_.begin(), current_advert_.end());

  std::uint64_t delta_bytes = 0;
  for (const auto& box : delta_outbox_) {
    delta_bytes += box.size() * sizeof(InfectiousInfo);
  }
  output_.ghost_exchange_bytes += delta_bytes;
  if (metrics_ != nullptr) {
    metrics_->add("epihiper.ghost_delta_bytes", delta_bytes);
  }

  // Unconditional collective: every rank calls alltoallv every tick even
  // with an empty outbox (mpilite collectives are lockstep).
  const auto inbox = comm_->alltoallv(delta_outbox_);
  for (const auto& messages : inbox) {
    for (const InfectiousInfo& rec : messages) {
      const auto it = std::lower_bound(ghost_persons_.begin(),
                                       ghost_persons_.end(), rec.person);
      EPI_ASSERT(it != ghost_persons_.end() && *it == rec.person,
                 "ghost delta for a person this rank never subscribed to");
      const auto gi =
          static_cast<std::uint32_t>(it - ghost_persons_.begin());
      ghost_records_[gi] = rec;
      const bool was_active = ghost_active_pos_[gi] != 0;
      const bool now_active = rec.state != kNoState;
      if (was_active == now_active) continue;
      if (now_active) {
        ghost_active_.push_back(gi);
        ghost_active_pos_[gi] =
            static_cast<std::uint32_t>(ghost_active_.size());
      } else {
        const std::uint32_t pos = ghost_active_pos_[gi] - 1;
        const std::uint32_t moved = ghost_active_.back();
        ghost_active_[pos] = moved;
        ghost_active_pos_[moved] = pos + 1;
        ghost_active_.pop_back();
        ghost_active_pos_[gi] = 0;
      }
    }
  }
}

void Simulation::step_transmissions_frontier() {
  if (comm_ != nullptr) {
    exchange_ghost_deltas();
    for (const std::uint32_t gi : ghost_active_) {
      tick_records_.push_back(ghost_records_[gi]);
    }
  }
  if (tick_records_.empty()) return;
  build_record_soa(tick_records_);

  // Push phase: this rank's in-edges sourced at any record holder. Out-edge
  // buckets are ascending, so two binary searches bound each holder's run
  // of locally owned edges.
  const EdgeIndex edge_end = edge_offset_ + edge_active_.size();
  const auto slot_count = static_cast<std::uint32_t>(slot_person_.size());
  slot_out_edges_.resize(slot_count);
  std::size_t hit_count = 0;
  for (std::uint32_t slot = 0; slot < slot_count; ++slot) {
    const auto edges = network_.out_edges_of(slot_person_[slot]);
    const auto first =
        std::lower_bound(edges.begin(), edges.end(), edge_offset_);
    const auto last = std::lower_bound(first, edges.end(), edge_end);
    slot_out_edges_[slot] = std::span<const EdgeIndex>(first, last);
    hit_count += static_cast<std::size_t>(last - first);
  }
  output_.work_units += hit_count;
  output_.frontier_edges_per_tick.back() += hit_count;
  if (metrics_ != nullptr) {
    metrics_->add("epihiper.frontier_edges", hit_count);
  }

  // Edge order groups hits by target (the in-CSR keeps each person's edges
  // contiguous, buckets in ascending person order), and inside each group
  // restores the legacy kernel's ascending-EdgeIndex candidate order — the
  // property that keeps every RNG draw byte-identical. A local edge appears
  // in at most one hit, so that order is unique.
  order_hits(
      edge_active_.size(), hit_count,
      [this, slot_count](const auto& emit) {
        for (std::uint32_t slot = 0; slot < slot_count; ++slot) {
          for (const EdgeIndex e : slot_out_edges_[slot]) {
            emit(pack_hit(e - edge_offset_, slot));
          }
        }
      },
      hit_blocks_, hits_);

  const std::size_t state_count = model_.state_count();
  const bool weights_scaled = !edge_weight_scale_.empty();
  std::uint64_t groups = 0;
  PersonId next_target = local_begin_;  // at or below every target ahead
  std::size_t i = 0;
  while (i < hits_.size()) {
    const PersonId p =
        network_.target_of(edge_offset_ + (hits_[i] >> 32), next_target);
    next_target = p + 1;
    const EdgeIndex group_end = network_.in_end(p) - edge_offset_;
    std::size_t j = i + 1;
    while (j < hits_.size() && (hits_[j] >> 32) < group_end) {
      ++j;
    }
    ++groups;
    const NodeState& node = nodes_[p - local_begin_];
    const HealthState& state = model_.state(node.health);
    if (!state.susceptible()) {
      i = j;
      continue;
    }
    candidate_rho_.clear();
    candidate_slots_.clear();
    const std::size_t omega_row = node.health * state_count;
    const double sigma = state.susceptibility * node.susceptibility_scale;
    double rate_sum = 0.0;
    for (std::size_t k = i; k < j; ++k) {
      const EdgeIndex e = edge_offset_ + (hits_[k] >> 32);
      const auto slot = static_cast<std::uint32_t>(hits_[k]);
      const double omega = transmission_omega_[omega_row + slot_state_[slot]];
      if (omega <= 0.0) continue;
      if (!edge_transmissible(e, p, slot_isolated_[slot] != 0,
                              slot_stay_home_[slot] != 0)) {
        continue;
      }
      // Eq (1), identical arithmetic and filter order to the broadcast
      // kernel (same rho values in the same candidate positions); the
      // source fields come from the dense SoA arrays and sigma is hoisted
      // per target, neither of which perturbs a single double bit.
      const Contact& c = network_.contact(e);
      const double duration_fraction = c.duration_minutes / 1440.0;
      const double weight =
          weights_scaled ? c.weight * edge_weight_scale_[e - edge_offset_]
                         : c.weight;
      const double rho =
          duration_fraction * weight * sigma * slot_iota_[slot] * omega;
      if (rho <= 0.0) continue;
      rate_sum += rho;
      candidate_rho_.push_back(rho);
      candidate_slots_.push_back(slot);
    }
    finish_candidate(p, rate_sum);
    i = j;
  }
  if (metrics_ != nullptr) {
    metrics_->add("epihiper.frontier_candidates", groups);
  }
  output_.work_units += groups;
}

void Simulation::step_progressions() {
  if (event_driven_) {
    step_progressions_events();
    return;
  }
  // Legacy tick-driven form: O(local persons) every tick, the cost the
  // event queue eliminates.
  output_.work_units += local_end_ - local_begin_;
  for (PersonId p = local_begin_; p < local_end_; ++p) {
    NodeState& node = nodes_[p - local_begin_];
    if (node.next_transition_tick == tick_ && node.next_state != kNoState) {
      transition_person(p, node.next_state, kNoPerson);
    }
  }
}

void Simulation::step_progressions_events() {
  // Pop everything due this tick in (tick, kind, person) order — ascending
  // person, exactly the order the legacy scan fired in. An event fires only
  // if it still matches the person's live schedule; anything superseded by
  // an intervening transition is stale and shed here. Events fired now
  // schedule strictly-future events (dwell >= 1), so this loop terminates.
  std::uint64_t popped = 0;
  TimedEvent event;
  while (event_queue_.pop_due(tick_, &event)) {
    ++popped;
    EPI_ASSERT(event.tick == tick_,
               "event for tick " << event.tick << " still queued at tick "
                                 << tick_ << " — a quiescence skip "
                                 << "jumped over scheduled work");
    NodeState& node = nodes_[event.person - local_begin_];
    if (node.next_transition_tick == tick_ && node.next_state != kNoState) {
      ++output_.events_fired;
      transition_person(event.person, node.next_state, kNoPerson);
    } else {
      ++output_.events_stale;
    }
  }
  output_.work_units += popped;
}

void Simulation::apply_interventions() {
  for (const auto& intervention : interventions_) {
    intervention->apply(*this);
  }
}

Tick Simulation::next_active_tick() const {
  // This rank's bid for the next tick that needs real work:
  //   - the head of the timed-event queue (earliest pending progression);
  //   - the next configured seeding tick (seeding is collective);
  //   - tick_ + 1 whenever transmission or an owed exchange could still
  //     happen: a live local frontier, subscribed ghost infectious persons,
  //     unsent advert deltas/tombstones, or queued remote isolations;
  //   - each intervention's quiescent_until() hint. Hints may be rank-local
  //     (trait triggers, local counts): the min-allreduce in run() turns
  //     the most conservative rank's bid into the global decision.
  Tick next = event_queue_.next_tick();
  const auto seed_it =
      std::upper_bound(seed_ticks_.begin(), seed_ticks_.end(), tick_);
  if (seed_it != seed_ticks_.end()) next = std::min(next, *seed_it);
  if (!local_infectious_.empty() || !ghost_active_.empty() ||
      !advertised_.empty() || !pending_remote_isolations_.empty()) {
    next = std::min(next, tick_ + 1);
  }
  for (const auto& intervention : interventions_) {
    next = std::min(next,
                    std::max(intervention->quiescent_until(*this), tick_ + 1));
  }
  return std::max(next, tick_ + 1);
}

SimOutput Simulation::run() {
  tick_ = 0;
  while (tick_ < config_.num_ticks) {
    Timer tick_timer;
    cached_global_counts_.reset();
    for (auto& bucket : entered_by_state_) bucket.clear();
    output_.new_infections_per_tick.push_back(0);
    output_.frontier_edges_per_tick.push_back(0);

    exchange_remote_isolation_requests();
    seed_infections();
    step_transmissions();
    step_progressions();
    apply_interventions();

    output_.memory_bytes_per_tick.push_back(memory_footprint_bytes());
    output_.seconds_per_tick.push_back(tick_timer.elapsed_seconds());
    ++output_.ticks_executed;

    if (!event_driven_) {
      ++tick_;
      continue;
    }
    // Quiescence skip: agree on the next globally active tick and jump
    // there without touching person state. Skipping is safe because the
    // RNG is keyed by (person, tick) — dormant ticks consume no stream
    // state — and it is collective-safe because every rank takes the same
    // min-allreduced jump, keeping lockstep collectives aligned.
    Tick next = next_active_tick();
    if (comm_ != nullptr) {
      next = static_cast<Tick>(comm_->allreduce(
          static_cast<std::int64_t>(next), mpilite::ReduceOp::kMin));
    }
    next = std::min(next, config_.num_ticks);
    for (Tick skipped = tick_ + 1; skipped < next; ++skipped) {
      // Skipped ticks still get per-tick output rows (zero activity, zero
      // cost) so time series stay per-mode comparable tick for tick.
      output_.new_infections_per_tick.push_back(0);
      output_.frontier_edges_per_tick.push_back(0);
      output_.memory_bytes_per_tick.push_back(memory_footprint_bytes());
      output_.seconds_per_tick.push_back(0.0);
      ++output_.ticks_skipped;
    }
    tick_ = next;
  }
  if (metrics_ != nullptr) {
    metrics_->add("epihiper.events_scheduled", output_.events_scheduled);
    metrics_->add("epihiper.events_fired", output_.events_fired);
    metrics_->add("epihiper.events_stale", output_.events_stale);
    metrics_->add("epihiper.ticks_skipped", output_.ticks_skipped);
    metrics_->add("epihiper.ticks_executed", output_.ticks_executed);
  }
  output_.final_states.resize(local_end_ - local_begin_);
  for (PersonId p = local_begin_; p < local_end_; ++p) {
    output_.final_states[p - local_begin_] = nodes_[p - local_begin_].health;
  }
  if (comm_ != nullptr) {
    output_.communication_bytes = comm_->bytes_sent();
  }
  output_.max_rank_work_units = output_.work_units;
  return output_;
}

}  // namespace epi
