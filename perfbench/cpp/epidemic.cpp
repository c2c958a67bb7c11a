// Workload `epidemic`: one uncontrolled VA epidemic at 1/40 scale
// (213,388 persons) on 4 thread ranks, then the summary cube and the
// transmission forest of its output. Set-up is region synthesis plus
// partitioning. After the operations, serial and 4-rank replicates
// alternate: the scaling baseline, and the reference the 4-rank output
// must equal.

#include <algorithm>
#include <optional>
#include <tuple>

#include "analytics/aggregate.hpp"
#include "analytics/dendrogram.hpp"
#include "epihiper/parallel.hpp"
#include "network/partition.hpp"
#include "obs/metrics.hpp"
#include "synthpop/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;
constexpr epi::Tick kTicks = 120;
constexpr double kDenominator = 40.0;
/// Digest of the serial replicate's output at the default seed.
constexpr const char* kPinnedDigest = "3c372a2f989373248c2d56a9ad00b645";

template <typename T>
void append_bytes(std::string& out, const std::vector<T>& values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(T));
}

}  // namespace

std::string replicate_bytes(const epi::SimOutput& output) {
  // The serial engine logs a tick's transitions in processing order, the
  // parallel merge by person: compare them as sorted sets.
  std::vector<epi::TransitionEvent> transitions = output.transitions;
  std::sort(transitions.begin(), transitions.end(),
            [](const epi::TransitionEvent& a, const epi::TransitionEvent& b) {
              return std::tie(a.tick, a.person, a.exit_state, a.infector) <
                     std::tie(b.tick, b.person, b.exit_state, b.infector);
            });
  std::string bytes;
  for (const epi::TransitionEvent& event : transitions) {
    bytes.append(reinterpret_cast<const char*>(&event.tick), sizeof(event.tick));
    bytes.append(reinterpret_cast<const char*>(&event.person),
                 sizeof(event.person));
    bytes.append(reinterpret_cast<const char*>(&event.exit_state),
                 sizeof(event.exit_state));
    bytes.append(reinterpret_cast<const char*>(&event.infector),
                 sizeof(event.infector));
  }
  append_bytes(bytes, output.final_states);
  append_bytes(bytes, output.new_infections_per_tick);
  return bytes;
}

void set_engine_metrics(Outcome& outcome, const epi::SimOutput& output,
                        int ranks) {
  double tick_loop = 0.0;
  for (double seconds : output.seconds_per_tick) tick_loop += seconds;
  std::uint64_t edges = 0;
  for (std::uint64_t count : output.frontier_edges_per_tick) edges += count;
  std::uint64_t peak_memory = 0;
  for (std::uint64_t bytes : output.memory_bytes_per_tick) {
    peak_memory = std::max(peak_memory, bytes);
  }
  auto& layer = outcome.per_layer;
  layer["epihiper.tick_loop_s"] = tick_loop;
  layer["epihiper.edges_evaluated"] = static_cast<double>(edges);
  layer["epihiper.ticks_executed"] = static_cast<double>(output.ticks_executed);
  layer["epihiper.ticks_skipped"] = static_cast<double>(output.ticks_skipped);
  layer["epihiper.events_fired"] = static_cast<double>(output.events_fired);
  layer["epihiper.events_stale"] = static_cast<double>(output.events_stale);
  layer["epihiper.total_infections"] =
      static_cast<double>(output.total_infections);
  layer["epihiper.transitions"] = static_cast<double>(output.transitions.size());
  layer["epihiper.work_units"] = static_cast<double>(output.work_units);
  // Max-rank work x ranks / total work; a serial run is balanced by
  // definition.
  layer["epihiper.rank_imbalance"] =
      ranks > 1 && output.work_units > 0
          ? static_cast<double>(output.max_rank_work_units) * ranks /
                static_cast<double>(output.work_units)
          : 1.0;
  layer["epihiper.peak_memory_bytes"] = static_cast<double>(peak_memory);
}

void set_mpilite_metrics(Outcome& outcome,
                         const epi::obs::MetricsRegistry& registry,
                         const epi::SimOutput& output) {
  const epi::Json snapshot = registry.snapshot();
  const auto starts_with = [](const std::string& text, const char* prefix) {
    return text.rfind(prefix, 0) == 0;
  };
  double bytes = 0.0;
  double msgs = 0.0;
  for (const auto& [name, value] : snapshot.at("counters").as_object()) {
    if (starts_with(name, "mpilite.bytes.")) bytes += value.as_double();
    if (starts_with(name, "mpilite.msgs.")) msgs += value.as_double();
  }
  double collective_s = 0.0;
  double collective_calls = 0.0;
  for (const auto& [name, value] : snapshot.at("histograms").as_object()) {
    if (starts_with(name, "mpilite.") && name.size() > 2 &&
        name.compare(name.size() - 2, 2, "_s") == 0) {
      collective_s += value.at("sum").as_double();
      collective_calls += value.at("count").as_double();
    }
  }
  auto& layer = outcome.per_layer;
  layer["mpilite.bytes"] = bytes;
  layer["mpilite.ghost_bytes"] = static_cast<double>(output.ghost_exchange_bytes);
  layer["mpilite.msgs"] = msgs;
  layer["mpilite.collective_s"] = collective_s;
  layer["mpilite.collective_calls"] = collective_calls;
}

Outcome run_epidemic(const Options& options, Tracer& tracer) {
  Outcome outcome;
  epi::SynthPopConfig pop_config;
  pop_config.region = "VA";
  pop_config.scale = 1.0 / (options.smoke ? 2000.0 : kDenominator);
  // One region for every seed: across synthesis seeds the attack rate,
  // and with it the work, moves by 15%; across engine seeds by 4%.
  pop_config.seed = 20200325;

  // ---- Set-up: synthesis + partition, repeated for a steady median.
  std::optional<epi::SyntheticRegion> region;
  epi::Partitioning partitioning;
  std::vector<double> setup, generate_s, partition_s;
  const int setups = options.smoke ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    region.reset();  // keep one region resident, as a real run would
    tracer.time("setup", [&] {
      generate_s.push_back(tracer.time("synthpop.generate_region", [&] {
        region.emplace(epi::generate_region(pop_config));
      }));
      partition_s.push_back(tracer.time("network.partition", [&] {
        partitioning = epi::partition_network(region->network, kRanks);
      }));
    });
    setup.push_back(generate_s.back() + partition_s.back());
  }

  const epi::DiseaseModel model = epi::covid_model();
  epi::SimulationConfig config;
  config.num_ticks = kTicks;
  config.seed = 42 + (options.seed - kDefaultSeed);
  config.seeds = {epi::SeedSpec{0, 5, 0}, epi::SeedSpec{1, 5, 0},
                  epi::SeedSpec{2, 5, 0}};

  // Untimed warm-up: first-touch page faults and allocator growth made the
  // first operation up to 50% slower than the rest.
  tracer.time("warm_up", [&] {
    epi::run_simulation_parallel(region->network, region->population, model,
                                 config, partitioning, kRanks);
  });

  // ---- Operations.
  std::vector<double> traced_replicate_s, cube_s, forest_s, tick_loop_s;
  std::string expected;  // the first operation's output
  std::uint64_t infections = 0;
  std::uint64_t sink = 0;
  repeat_ops(options, tracer, outcome.ops, [&](Tracer& t, bool traced) {
    epi::obs::MetricsRegistry registry;
    epi::mpilite::ObsHooks hooks;
    hooks.metrics = &registry;
    epi::SimOutput output;
    double replicate = 0.0, cube = 0.0, forest = 0.0;
    const double op_s = t.time("operation", [&] {
      replicate = t.time("epihiper.replicate", [&] {
        output = traced ? epi::run_simulation_parallel(
                              region->network, region->population, model,
                              config, partitioning, kRanks, nullptr, hooks)
                        : epi::run_simulation_parallel(
                              region->network, region->population, model,
                              config, partitioning, kRanks);
      });
      cube = t.time("analytics.summary_cube", [&] {
        sink += epi::build_summary_cube(output, region->population, model,
                                        kTicks)
                    .byte_size();
      });
      forest = t.time("analytics.forest", [&] {
        sink += epi::TransmissionForest(output.transitions).infection_count();
      });
    });
    const std::string bytes = replicate_bytes(output);
    if (expected.empty()) {
      expected = bytes;
      infections = output.total_infections;
    }
    check(bytes == expected, "4-rank output differs between operations");
    check(options.seed != kDefaultSeed || options.smoke ||
              digest(bytes) == kPinnedDigest,
          "epidemic output digest " + digest(bytes) +
              " differs from the pinned one");
    if (traced) {
      traced_replicate_s.push_back(replicate);
      cube_s.push_back(cube);
      forest_s.push_back(forest);
      tick_loop_s.push_back(0.0);
      for (double s : output.seconds_per_tick) tick_loop_s.back() += s;
      set_engine_metrics(outcome, output, kRanks);
      set_mpilite_metrics(outcome, registry, output);
    }
    return op_s;
  });

  // ---- Scaling: serial and 4-rank replicates, interleaved. The serial
  // output must equal the operations' 4-rank output.
  std::vector<double> serial_s;
  const double efficiency = interleaved_efficiency(
      2, kRanks,
      [&] {
        epi::SimOutput serial;
        serial_s.push_back(tracer.time("epihiper.serial_replicate", [&] {
          serial = epi::run_simulation(region->network, region->population,
                                       model, config);
        }));
        outcome.ops.record_check(replicate_bytes(serial) == expected,
                                 "serial replicate differs from the 4-rank one");
        return serial_s.back();
      },
      [&] {
        return tracer.time("epihiper.replicate", [&] {
          epi::run_simulation_parallel(region->network, region->population,
                                       model, config, partitioning, kRanks);
        });
      });

  set_common_metrics(outcome, setup);
  const double persons = region->population.person_count();
  outcome.end_to_end["person_ticks_per_s"] =
      persons * kTicks / outcome.end_to_end["time_to_result_s"];
  outcome.end_to_end["scaling_eff_4r"] = efficiency;

  auto& layer = outcome.per_layer;
  layer["synthpop.generate_region_s"] = median(generate_s);
  layer["network.partition_s"] = median(partition_s);
  layer["network.edge_imbalance"] = partitioning.edge_imbalance();
  layer["epihiper.serial_replicate_s"] = median(serial_s);
  if (tracer.enabled()) {
    layer["epihiper.tick_loop_s"] = median(tick_loop_s);
    layer["analytics.summary_cube_s"] = median(cube_s);
    layer["analytics.forest_s"] = median(forest_s);
    set_breakdown(outcome, {{"epihiper.replicate", traced_replicate_s},
                            {"analytics.summary_cube", cube_s},
                            {"analytics.forest", forest_s}});
  }
  std::fprintf(stderr, "perfbench: epidemic %u persons, %lu contacts, %lu "
               "infections, sink %lu\n",
               region->population.person_count(),
               static_cast<unsigned long>(region->network.contact_count()),
               static_cast<unsigned long>(infections),
               static_cast<unsigned long>(sink));
  return outcome;
}

}  // namespace perfbench
