// Whole-replicate drivers: serial and rank-parallel execution with output
// merging. The parallel driver reproduces the production setup — network
// partitioned ahead of time, one engine instance per rank, per-tick
// infectious-set exchange — and merges the per-rank outputs into the same
// SimOutput a serial run produces (bitwise-identical transitions; the
// equivalence is covered by tests).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "epihiper/simulation.hpp"

namespace epi {

/// Builds a fresh intervention set; called once per rank (interventions
/// carry per-rank state and must not be shared across ranks).
using InterventionFactory =
    std::function<std::vector<std::shared_ptr<Intervention>>()>;

/// Runs one replicate serially.
SimOutput run_simulation(const ContactNetwork& network,
                         const Population& population,
                         const DiseaseModel& model,
                         const SimulationConfig& config,
                         const InterventionFactory& interventions = nullptr);

/// Runs one replicate on `num_ranks` mpilite ranks over `partitioning`
/// (must have exactly num_ranks parts) and merges outputs: transitions
/// stably sorted by (tick, person), so each person's same-tick
/// transitions keep their serial order; per-tick infection counts summed,
/// per-tick memory summed across ranks, per-tick seconds = max across
/// ranks (the critical path), final states concatenated in person order.
SimOutput run_simulation_parallel(const ContactNetwork& network,
                                  const Population& population,
                                  const DiseaseModel& model,
                                  const SimulationConfig& config,
                                  const Partitioning& partitioning,
                                  int num_ranks,
                                  const InterventionFactory& interventions =
                                      nullptr);

/// As above, with observability sinks attached to the mpilite group
/// (per-rank-pair traffic counters, collective-time histograms).
SimOutput run_simulation_parallel(const ContactNetwork& network,
                                  const Population& population,
                                  const DiseaseModel& model,
                                  const SimulationConfig& config,
                                  const Partitioning& partitioning,
                                  int num_ranks,
                                  const InterventionFactory& interventions,
                                  const mpilite::ObsHooks& obs);

}  // namespace epi
