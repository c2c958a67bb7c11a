// The four workloads. Each one does most of its work in a different layer;
// README.md beside this file says why each exists and which metrics it
// should move.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace epi {
struct SimOutput;
namespace obs {
class MetricsRegistry;
}
}  // namespace epi

namespace perfbench {

/// Engine replicate, 4 thread ranks, analytics: the engine and the halo
/// exchange dominate.
Outcome run_epidemic(const Options& options, Tracer& tracer);
/// Region synthesis, binary and chunk I/O, partitioning, ghost lists, then
/// one small replicate: network build and I/O dominate.
Outcome run_build(const Options& options, Tracer& tracer);
/// The calibration nightly: cell configurations and the Slurm DES dominate.
Outcome run_nightly(const Options& options, Tracer& tracer);
/// Runs the calibration nightly once, then times the layers it calls
/// internally (cell configurations, config bytes, packing, the DES with and
/// without faults) on the same inputs, checks them against its report, and
/// sets the workflow.* and cluster.* metrics. `nightly` is too noisy for
/// BENCHMARK.json; the traced runs of `scenarios` measure these layers.
void measure_workflow_layers(const Options& options, Tracer& tracer,
                             Outcome& outcome);
/// A cold scenario-service wave: service, exec farm, small replicates with
/// interventions, emulator and MCMC.
Outcome run_scenarios(const Options& options, Tracer& tracer);

/// Byte string of the parts of a replicate's output that must agree
/// between serial and rank-parallel runs: transitions, final states and
/// the incidence curve.
std::string replicate_bytes(const epi::SimOutput& output);

/// Engine counters of one replicate on `ranks` ranks (epihiper.*).
void set_engine_metrics(Outcome& outcome, const epi::SimOutput& output,
                        int ranks);

/// mpilite traffic and collective metrics from an ObsHooks registry.
void set_mpilite_metrics(Outcome& outcome,
                         const epi::obs::MetricsRegistry& registry,
                         const epi::SimOutput& output);

}  // namespace perfbench
