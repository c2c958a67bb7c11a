// Workload `build`: take a region from nothing to its first replicate.
// generate_region, the binary network file written and read back, its
// content hash, partitioning, per-rank chunk files written and read back,
// ghost lists, then one 4-rank replicate under the `base` intervention
// stack, which barely spreads — network build and I/O dominate. Set-up is
// the same pipeline at 1/20 of the scale, a warm-up before timing.

#include <unistd.h>

#include <filesystem>
#include <optional>

#include "epihiper/interventions.hpp"
#include "epihiper/parallel.hpp"
#include "network/partition.hpp"
#include "obs/metrics.hpp"
#include "synthpop/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;
constexpr epi::Tick kTicks = 120;
constexpr const char* kRegion = "CA";
constexpr double kDenominator = 40.0;
/// content_hash() of the built network at the default seed.
constexpr std::uint64_t kPinnedHash = 7168570456684121622ULL;

namespace fs = std::filesystem;

/// Removes a scratch directory on scope exit, error paths included.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  fs::path path_;
};

/// Seconds per layer of one pass through the pipeline.
struct PassTimes {
  double generate = 0.0, write_binary = 0.0, read_binary = 0.0, hash = 0.0,
         partition = 0.0, write_chunks = 0.0, read_chunks = 0.0,
         ghost_sources = 0.0, replicate = 0.0;
};

/// What a pass leaves behind for the checks and the serial baseline.
struct PassState {
  std::optional<epi::SyntheticRegion> region;
  std::optional<epi::ContactNetwork> network;  // read back from disk
  epi::Partitioning partitioning;
  epi::SimOutput output;
  std::uint64_t built_hash = 0;
  std::uint64_t binary_bytes = 0;
};

epi::SimulationConfig replicate_config(std::uint64_t seed) {
  epi::SimulationConfig config;
  config.num_ticks = kTicks;
  config.seed = 42 + (seed - kDefaultSeed);
  config.seeds = {epi::SeedSpec{0, 5, 0}, epi::SeedSpec{1, 5, 0},
                  epi::SeedSpec{2, 5, 0}};
  return config;
}

epi::InterventionFactory base_stack() {
  return [] { return epi::make_intervention_stack("base"); };
}

/// One pass: region from nothing to its first replicate, every step a
/// span. Runs the output checks that do not need a reference.
PassTimes run_pass(const epi::SynthPopConfig& pop_config,
                   const epi::DiseaseModel& model,
                   const epi::SimulationConfig& config, const fs::path& dir,
                   Tracer& t, epi::obs::MetricsRegistry* registry,
                   PassState& state) {
  PassTimes times;
  state = PassState{};
  const ScratchDir scratch(dir);
  const std::string binary = (dir / "network.bin").string();
  times.generate = t.time("synthpop.generate_region", [&] {
    state.region.emplace(epi::generate_region(pop_config));
  });
  const epi::ContactNetwork& built = state.region->network;
  times.write_binary =
      t.time("network.write_binary", [&] { built.write_binary(binary); });
  state.binary_bytes = fs::file_size(binary);
  times.read_binary = t.time("network.read_binary", [&] {
    state.network.emplace(epi::ContactNetwork::read_binary(binary));
  });
  std::uint64_t read_hash = 0;
  times.hash = t.time("network.content_hash", [&] {
    state.built_hash = built.content_hash();
    read_hash = state.network->content_hash();
  });
  check(read_hash == state.built_hash,
        "read_binary does not round-trip to the same content_hash");
  const epi::ContactNetwork& network = *state.network;
  times.partition = t.time("network.partition", [&] {
    state.partitioning = epi::partition_network(network, kRanks);
  });
  std::vector<std::string> chunks;
  times.write_chunks = t.time("network.write_chunks", [&] {
    chunks = epi::write_partition_chunks(network, state.partitioning,
                                         (dir / "chunks").string());
  });
  std::uint64_t chunk_contacts = 0;
  times.read_chunks = t.time("network.read_chunks", [&] {
    for (const std::string& chunk : chunks) {
      chunk_contacts += epi::read_partition_chunk(chunk).size();
    }
  });
  check(chunk_contacts == network.edge_count(),
        "partition chunk contact counts do not sum to edge_count()");
  std::uint64_t ghosts = 0;
  times.ghost_sources = t.time("network.ghost_sources", [&] {
    for (std::size_t part = 0; part < state.partitioning.size(); ++part) {
      ghosts +=
          epi::compute_ghost_sources(network, state.partitioning, part).size();
    }
  });
  check(ghosts > 0, "no ghost sources on a connected 4-way partitioning");
  times.replicate = t.time("epihiper.replicate", [&] {
    epi::mpilite::ObsHooks hooks;
    hooks.metrics = registry;
    state.output = epi::run_simulation_parallel(
        network, state.region->population, model, config, state.partitioning,
        kRanks, base_stack(), hooks);
  });
  return times;
}

}  // namespace

Outcome run_build(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const double denominator = options.smoke ? 4000.0 : kDenominator;
  epi::SynthPopConfig pop_config;
  pop_config.region = kRegion;
  pop_config.scale = 1.0 / denominator;
  pop_config.seed = 20200325 + (options.seed - kDefaultSeed);
  const epi::DiseaseModel model = epi::covid_model();
  const epi::SimulationConfig config = replicate_config(options.seed);
  const fs::path dir =
      fs::path(options.out_dir) / ("build-" + std::to_string(::getpid()));

  // ---- Set-up: the pipeline at 1/20 of the scale, warming code and
  // allocator before the timed passes.
  std::vector<double> setup;
  {
    epi::SynthPopConfig warm = pop_config;
    warm.scale = options.smoke ? pop_config.scale : pop_config.scale / 20.0;
    PassState state;
    Tracer untraced(false);
    for (int i = 0; i < (options.smoke ? 1 : 3); ++i) {
      setup.push_back(tracer.time("setup", [&] {
        run_pass(warm, model, config, dir, untraced, nullptr, state);
      }));
    }
  }

  // ---- Operations.
  std::vector<PassTimes> traced_passes;
  PassState state;
  std::optional<std::uint64_t> first_hash;
  repeat_ops(options, tracer, outcome.ops, [&](Tracer& t, bool traced) {
    epi::obs::MetricsRegistry registry;
    PassTimes times;
    const double op_s = t.time("operation", [&] {
      times = run_pass(pop_config, model, config, dir, t,
                       traced ? &registry : nullptr, state);
    });
    if (!first_hash) first_hash = state.built_hash;
    check(state.built_hash == *first_hash,
          "generate_region is not deterministic across passes");
    check(options.seed != kDefaultSeed || options.smoke ||
              state.built_hash == kPinnedHash,
          "network content_hash differs from the pinned one (" +
              std::to_string(state.built_hash) + ")");
    if (traced) {
      traced_passes.push_back(times);
      set_engine_metrics(outcome, state.output, kRanks);
      set_mpilite_metrics(outcome, registry, state.output);
    }
    return op_s;
  });

  // ---- Scaling: serial and 4-rank replicates of the last pass's network,
  // interleaved. The serial output must equal the 4-rank one.
  check(state.network.has_value(), "no successful build pass");
  const std::string expected = replicate_bytes(state.output);
  std::vector<double> serial_s;
  const double efficiency = interleaved_efficiency(
      options.smoke ? 1 : 9, kRanks,
      [&] {
        epi::SimOutput serial;
        serial_s.push_back(tracer.time("epihiper.serial_replicate", [&] {
          serial = epi::run_simulation(*state.network,
                                       state.region->population, model, config,
                                       base_stack());
        }));
        outcome.ops.record_check(replicate_bytes(serial) == expected,
                                 "serial replicate differs from the 4-rank one");
        return serial_s.back();
      },
      [&] {
        return tracer.time("epihiper.replicate", [&] {
          epi::run_simulation_parallel(*state.network, state.region->population,
                                       model, config, state.partitioning,
                                       kRanks, base_stack());
        });
      });

  set_common_metrics(outcome, setup);
  const double persons = state.region->population.person_count();
  outcome.end_to_end["person_ticks_per_s"] =
      persons * kTicks / outcome.end_to_end["time_to_result_s"];
  outcome.end_to_end["scaling_eff_4r"] = efficiency;

  auto& layer = outcome.per_layer;
  layer["network.binary_bytes"] = static_cast<double>(state.binary_bytes);
  layer["network.edge_imbalance"] = state.partitioning.edge_imbalance();
  layer["epihiper.serial_replicate_s"] = median(serial_s);
  if (tracer.enabled()) {
    const std::vector<std::pair<std::string, double PassTimes::*>> rows = {
        {"synthpop.generate_region", &PassTimes::generate},
        {"network.write_binary", &PassTimes::write_binary},
        {"network.read_binary", &PassTimes::read_binary},
        {"network.content_hash", &PassTimes::hash},
        {"network.partition", &PassTimes::partition},
        {"network.write_chunks", &PassTimes::write_chunks},
        {"network.read_chunks", &PassTimes::read_chunks},
        {"network.ghost_sources", &PassTimes::ghost_sources},
        {"epihiper.replicate", &PassTimes::replicate},
    };
    std::vector<BreakdownRow> breakdown;
    for (const auto& [name, field] : rows) {
      std::vector<double> seconds;
      for (const PassTimes& pass : traced_passes) seconds.push_back(pass.*field);
      // The replicate's engine time is reported as epihiper.tick_loop_s.
      if (field != &PassTimes::replicate) layer[name + "_s"] = median(seconds);
      breakdown.emplace_back(name, std::move(seconds));
    }
    set_breakdown(outcome, breakdown);
  }
  std::fprintf(stderr, "perfbench: build %s 1/%.0f: %u persons, %lu "
               "contacts, hash %lu, %lu infections\n",
               kRegion, denominator, state.region->population.person_count(),
               static_cast<unsigned long>(state.region->network.contact_count()),
               static_cast<unsigned long>(state.built_hash),
               static_cast<unsigned long>(state.output.total_infections));
  return outcome;
}

}  // namespace perfbench
