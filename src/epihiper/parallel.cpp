#include "epihiper/parallel.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace epi {

namespace {

// Rank-local results only exist in rank 0's process under the mpilite shm
// backend (forked ranks do not share per_rank below), so every other rank
// ships its SimOutput to rank 0 explicitly. The tag is the highest valid
// user tag — far from the simulator's small tick-keyed tags.
constexpr int kGatherTag = (1 << 30) - 1;

std::vector<std::byte> serialize_sim_output(const SimOutput& out) {
  ByteWriter blob;
  blob.pod_vector(out.transitions);
  blob.pod_vector(out.new_infections_per_tick);
  blob.pod_vector(out.memory_bytes_per_tick);
  blob.pod_vector(out.seconds_per_tick);
  blob.pod_vector(out.final_states);
  blob.pod_vector(out.frontier_edges_per_tick);
  blob.u64(out.total_infections);
  blob.u64(out.communication_bytes);
  blob.u64(out.ghost_exchange_bytes);
  blob.u64(out.work_units);
  blob.u64(out.max_rank_work_units);
  blob.u64(out.events_scheduled);
  blob.u64(out.events_fired);
  blob.u64(out.events_stale);
  blob.u64(out.ticks_skipped);
  blob.u64(out.ticks_executed);
  blob.u64(out.broadcast_ticks);
  blob.u64(out.ghost_ticks);
  return blob.take();
}

SimOutput deserialize_sim_output(const std::vector<std::byte>& blob) {
  ByteReader in(blob, "rank SimOutput payload");
  SimOutput out;
  out.transitions = in.pod_vector<TransitionEvent>();
  out.new_infections_per_tick = in.pod_vector<std::uint64_t>();
  out.memory_bytes_per_tick = in.pod_vector<std::uint64_t>();
  out.seconds_per_tick = in.pod_vector<double>();
  out.final_states = in.pod_vector<HealthStateId>();
  out.frontier_edges_per_tick = in.pod_vector<std::uint64_t>();
  out.total_infections = in.u64();
  out.communication_bytes = in.u64();
  out.ghost_exchange_bytes = in.u64();
  out.work_units = in.u64();
  out.max_rank_work_units = in.u64();
  out.events_scheduled = in.u64();
  out.events_fired = in.u64();
  out.events_stale = in.u64();
  out.ticks_skipped = in.u64();
  out.ticks_executed = in.u64();
  out.broadcast_ticks = in.u64();
  out.ghost_ticks = in.u64();
  EPI_REQUIRE(in.done(), "trailing bytes in rank SimOutput payload");
  return out;
}

bool tick_then_person(const TransitionEvent& a, const TransitionEvent& b) {
  return a.tick < b.tick || (a.tick == b.tick && a.person < b.person);
}

}  // namespace

SimOutput run_simulation(const ContactNetwork& network,
                         const Population& population,
                         const DiseaseModel& model,
                         const SimulationConfig& config,
                         const InterventionFactory& interventions) {
  Simulation sim(network, population, model, config);
  if (interventions) {
    for (auto& intervention : interventions()) {
      sim.add_intervention(std::move(intervention));
    }
  }
  return sim.run();
}

SimOutput run_simulation_parallel(const ContactNetwork& network,
                                  const Population& population,
                                  const DiseaseModel& model,
                                  const SimulationConfig& config,
                                  const Partitioning& partitioning,
                                  int num_ranks,
                                  const InterventionFactory& interventions) {
  return run_simulation_parallel(network, population, model, config,
                                 partitioning, num_ranks, interventions,
                                 mpilite::ObsHooks{});
}

SimOutput run_simulation_parallel(const ContactNetwork& network,
                                  const Population& population,
                                  const DiseaseModel& model,
                                  const SimulationConfig& config,
                                  const Partitioning& partitioning,
                                  int num_ranks,
                                  const InterventionFactory& interventions,
                                  const mpilite::ObsHooks& obs) {
  EPI_REQUIRE(num_ranks > 0, "need at least one rank");
  EPI_REQUIRE(partitioning.size() == static_cast<std::size_t>(num_ranks),
              "partitioning has " << partitioning.size() << " parts for "
                                  << num_ranks << " ranks");
  std::vector<SimOutput> per_rank(static_cast<std::size_t>(num_ranks));
  mpilite::Runtime::run(num_ranks, [&](mpilite::Comm& comm) {
    Simulation sim(network, population, model, config, &comm, &partitioning);
    // Through the Comm, not obs.metrics directly: under the shm backend
    // each forked rank reports into a process-local registry that is
    // merged after the run (a captured parent pointer would silently drop
    // every child's metrics).
    sim.set_metrics(comm.metrics());
    if (interventions) {
      for (auto& intervention : interventions()) {
        sim.add_intervention(std::move(intervention));
      }
    }
    SimOutput out = sim.run();
    // (tick, person) is not unique: a person seeded or infected in a tick
    // can be moved on by an intervention in the same tick. The rank logs
    // in processing order and owns its persons outright, so a stable sort
    // keeps each person's same-tick transitions in the serial order.
    std::stable_sort(out.transitions.begin(), out.transitions.end(),
                     tick_then_person);
    if (comm.backend() == mpilite::BackendKind::kShm) {
      // Gather to rank 0, whose body runs on this (launching) thread so
      // its per_rank writes survive the forked ranks' exit. The gather
      // runs after sim.run() captured communication_bytes, so it never
      // perturbs the simulation output itself.
      if (comm.rank() == 0) {
        per_rank[0] = std::move(out);
        for (int r = 1; r < comm.size(); ++r) {
          per_rank[static_cast<std::size_t>(r)] =
              deserialize_sim_output(comm.recv_bytes(r, kGatherTag));
        }
      } else {
        comm.send_bytes(0, kGatherTag, serialize_sim_output(out));
      }
    } else {
      per_rank[static_cast<std::size_t>(comm.rank())] = std::move(out);
    }
  }, obs);

  // Merge rank outputs into the serial-equivalent view.
  SimOutput merged;
  const auto ticks = static_cast<std::size_t>(config.num_ticks);
  merged.new_infections_per_tick.assign(ticks, 0);
  merged.frontier_edges_per_tick.assign(ticks, 0);
  merged.memory_bytes_per_tick.assign(ticks, 0);
  merged.seconds_per_tick.assign(ticks, 0.0);
  merged.final_states.reserve(network.node_count());
  for (const SimOutput& out : per_rank) {
    EPI_ASSERT(out.new_infections_per_tick.size() == ticks,
               "rank output tick-count mismatch");
    for (std::size_t t = 0; t < ticks; ++t) {
      merged.new_infections_per_tick[t] += out.new_infections_per_tick[t];
      merged.frontier_edges_per_tick[t] += out.frontier_edges_per_tick[t];
      merged.memory_bytes_per_tick[t] += out.memory_bytes_per_tick[t];
      merged.seconds_per_tick[t] =
          std::max(merged.seconds_per_tick[t], out.seconds_per_tick[t]);
    }
    merged.final_states.insert(merged.final_states.end(),
                               out.final_states.begin(),
                               out.final_states.end());
    merged.total_infections += out.total_infections;
    merged.communication_bytes += out.communication_bytes;
    merged.ghost_exchange_bytes += out.ghost_exchange_bytes;
    merged.work_units += out.work_units;
    merged.max_rank_work_units =
        std::max(merged.max_rank_work_units, out.work_units);
    // Progression accounting sums across ranks; tick counters are
    // identical on every rank (skip and kernel decisions are collective),
    // so max == any rank.
    merged.events_scheduled += out.events_scheduled;
    merged.events_fired += out.events_fired;
    merged.events_stale += out.events_stale;
    merged.ticks_skipped = std::max(merged.ticks_skipped, out.ticks_skipped);
    merged.ticks_executed =
        std::max(merged.ticks_executed, out.ticks_executed);
    merged.broadcast_ticks =
        std::max(merged.broadcast_ticks, out.broadcast_ticks);
    merged.ghost_ticks = std::max(merged.ghost_ticks, out.ghost_ticks);
  }
  // Each rank's log is sorted by (tick, person) and the parts tile the
  // person range in ascending rank order, so each tick's runs joined in
  // rank order are that tick's slice of the log stable-sorted by (tick,
  // person) — the serial order of every person's same-tick transitions.
  std::vector<std::span<const TransitionEvent>> logs;
  std::size_t events = 0;
  for (const SimOutput& out : per_rank) {
    logs.emplace_back(out.transitions);
    events += out.transitions.size();
  }
  merged.transitions.reserve(events);
  while (merged.transitions.size() < events) {
    Tick tick = std::numeric_limits<Tick>::max();
    for (const auto& log : logs) {
      if (!log.empty()) tick = std::min(tick, log.front().tick);
    }
    for (auto& log : logs) {
      std::size_t run = 0;
      while (run < log.size() && log[run].tick == tick) ++run;
      merged.transitions.insert(merged.transitions.end(), log.begin(),
                                log.begin() + static_cast<std::ptrdiff_t>(run));
      log = log.subspan(run);
    }
  }
  return merged;
}

}  // namespace epi
