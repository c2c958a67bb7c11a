#include "epihiper/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "epihiper/hit_order.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace epi {
namespace {

// Shared small region for simulation tests.
const SyntheticRegion& test_region() {
  static const SyntheticRegion region = [] {
    SynthPopConfig config;
    config.region = "DC";
    config.scale = 1.0 / 300.0;  // ~2350 persons
    config.seed = 99;
    return generate_region(config);
  }();
  return region;
}

SimulationConfig base_config(Tick ticks = 60) {
  SimulationConfig config;
  config.num_ticks = ticks;
  config.seed = 1234;
  config.seeds = {SeedSpec{0, 10, 0}};
  return config;
}

TEST(Simulation, SeedsExposeRequestedCount) {
  const DiseaseModel model = covid_model();
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(1));
  const SimOutput out = sim.run();
  // Exactly 10 seeded exposures at tick 0 (county 0 is the largest; it has
  // more than 10 residents at this scale).
  std::size_t seeded = 0;
  for (const auto& event : out.transitions) {
    if (event.tick == 0 &&
        event.exit_state == model.state_id(covid_states::kExposed)) {
      ++seeded;
      EXPECT_EQ(event.infector, kNoPerson);
      EXPECT_EQ(test_region().population.person(event.person).county, 0);
    }
  }
  EXPECT_EQ(seeded, 10u);
}

TEST(Simulation, EpidemicGrowsFromSeeds) {
  const DiseaseModel model = covid_model();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(90));
  EXPECT_GT(out.total_infections, 50u);  // outbreak took off
  EXPECT_LT(out.total_infections, test_region().population.person_count());
}

TEST(Simulation, NoSeedsNoEpidemic) {
  const DiseaseModel model = covid_model();
  SimulationConfig config = base_config(30);
  config.seeds.clear();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model, config);
  EXPECT_EQ(out.total_infections, 0u);
  EXPECT_TRUE(out.transitions.empty());
}

TEST(Simulation, ZeroTransmissibilityStopsSpread) {
  CovidParams params;
  params.transmissibility = 0.0;
  const DiseaseModel model = covid_model(params);
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(60));
  EXPECT_EQ(out.total_infections, 0u);  // seeds progress but never transmit
  EXPECT_FALSE(out.transitions.empty());  // seeded persons still progress
}

TEST(Simulation, HigherTransmissibilityMoreInfections) {
  CovidParams lo_params, hi_params;
  lo_params.transmissibility = 0.10;
  hi_params.transmissibility = 0.30;
  const SimOutput lo = run_simulation(test_region().network,
                                      test_region().population,
                                      covid_model(lo_params), base_config(80));
  const SimOutput hi = run_simulation(test_region().network,
                                      test_region().population,
                                      covid_model(hi_params), base_config(80));
  EXPECT_GT(hi.total_infections, lo.total_infections * 2);
}

TEST(Simulation, ReplicatesDiffer) {
  const DiseaseModel model = covid_model();
  SimulationConfig a = base_config(50);
  SimulationConfig b = base_config(50);
  b.replicate = 1;
  const SimOutput out_a = run_simulation(test_region().network,
                                         test_region().population, model, a);
  const SimOutput out_b = run_simulation(test_region().network,
                                         test_region().population, model, b);
  EXPECT_NE(out_a.total_infections, out_b.total_infections);
}

TEST(Simulation, SameConfigBitwiseReproducible) {
  const DiseaseModel model = covid_model();
  const SimOutput a = run_simulation(test_region().network,
                                     test_region().population, model,
                                     base_config(40));
  const SimOutput b = run_simulation(test_region().network,
                                     test_region().population, model,
                                     base_config(40));
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].tick, b.transitions[i].tick);
    EXPECT_EQ(a.transitions[i].person, b.transitions[i].person);
    EXPECT_EQ(a.transitions[i].exit_state, b.transitions[i].exit_state);
    EXPECT_EQ(a.transitions[i].infector, b.transitions[i].infector);
  }
}

TEST(Simulation, TransitionsAreTickOrdered) {
  const DiseaseModel model = covid_model();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(50));
  for (std::size_t i = 1; i < out.transitions.size(); ++i) {
    EXPECT_LE(out.transitions[i - 1].tick, out.transitions[i].tick);
  }
}

TEST(Simulation, InfectorsAreInfectiousContacts) {
  const DiseaseModel model = covid_model();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(60));
  const ContactNetwork& net = test_region().network;
  std::size_t checked = 0;
  for (const auto& event : out.transitions) {
    if (event.infector == kNoPerson) continue;
    // The infector must be a network neighbor (an in-edge source).
    bool neighbor = false;
    for (EdgeIndex e = net.in_begin(event.person); e < net.in_end(event.person);
         ++e) {
      neighbor |= net.contact(e).source == event.infector;
    }
    EXPECT_TRUE(neighbor) << "person " << event.person << " infected by "
                          << event.infector;
    if (++checked > 200) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Simulation, StateCountsConserved) {
  const DiseaseModel model = covid_model();
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(60));
  sim.run();
  std::int64_t total = 0;
  for (std::size_t s = 0; s < model.state_count(); ++s) {
    const std::int64_t count =
        sim.global_state_count(static_cast<HealthStateId>(s));
    EXPECT_GE(count, 0);
    total += count;
  }
  EXPECT_EQ(total,
            static_cast<std::int64_t>(test_region().population.person_count()));
}

TEST(Simulation, FinalStatesMatchTransitionLog) {
  const DiseaseModel model = covid_model();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(50));
  std::vector<HealthStateId> replayed(test_region().population.person_count(),
                                      model.initial_state());
  for (const auto& event : out.transitions) {
    replayed[event.person] = event.exit_state;
  }
  ASSERT_EQ(out.final_states.size(), replayed.size());
  for (std::size_t p = 0; p < replayed.size(); ++p) {
    EXPECT_EQ(out.final_states[p], replayed[p]);
  }
}

TEST(Simulation, DeathsAndHospitalizationsOccurInLargeOutbreak) {
  CovidParams params;
  params.transmissibility = 0.35;
  const DiseaseModel model = covid_model(params);
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(120));
  std::set<HealthStateId> seen;
  for (const auto& event : out.transitions) seen.insert(event.exit_state);
  EXPECT_TRUE(seen.count(model.state_id(covid_states::kHospitalized)));
  EXPECT_TRUE(seen.count(model.state_id(covid_states::kDeceased)));
  EXPECT_TRUE(seen.count(model.state_id(covid_states::kRecovered)));
}

TEST(Simulation, MemoryFootprintRecordedAndGrowing) {
  const DiseaseModel model = covid_model();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(60));
  ASSERT_EQ(out.memory_bytes_per_tick.size(), 60u);
  EXPECT_GT(out.memory_bytes_per_tick.front(), 0u);
  // The transition log grows, so late-simulation memory >= early memory.
  EXPECT_GE(out.memory_bytes_per_tick.back(),
            out.memory_bytes_per_tick.front());
}

TEST(Simulation, PerTickInfectionsSumToTotal) {
  const DiseaseModel model = covid_model();
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model,
                                       base_config(70));
  std::uint64_t sum = 0;
  for (std::uint64_t x : out.new_infections_per_tick) sum += x;
  EXPECT_EQ(sum, out.total_infections);
}

TEST(Simulation, LateSeedTickHonored) {
  const DiseaseModel model = covid_model();
  SimulationConfig config = base_config(30);
  config.seeds = {SeedSpec{0, 5, 10}};
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model, config);
  for (const auto& event : out.transitions) {
    EXPECT_GE(event.tick, 10);
  }
}

TEST(Simulation, SeedCountExceedingCountyClamps) {
  const DiseaseModel model = covid_model();
  SimulationConfig config = base_config(1);
  // County with the fewest residents: ask for far more seeds than people.
  const std::uint16_t last_county =
      static_cast<std::uint16_t>(test_region().population.county_count() - 1);
  config.seeds = {SeedSpec{last_county, 1000000, 0}};
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model, config);
  EXPECT_LE(out.transitions.size(),
            test_region().population.person_count());
}

TEST(Simulation, ConfigValidation) {
  const DiseaseModel model = covid_model();
  SimulationConfig config;
  config.num_ticks = 0;
  EXPECT_THROW(Simulation(test_region().network, test_region().population,
                          model, config),
               Error);
}

TEST(Simulation, VariablesAndTraits) {
  const DiseaseModel model = covid_model();
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(5));
  EXPECT_DOUBLE_EQ(sim.variable("x"), 0.0);
  sim.set_variable("x", 2.5);
  EXPECT_DOUBLE_EQ(sim.variable("x"), 2.5);
  EXPECT_EQ(sim.node_trait("tested", 3), 0);
  sim.set_node_trait("tested", 3, 1);
  EXPECT_EQ(sim.node_trait("tested", 3), 1);
  EXPECT_EQ(sim.node_trait("tested", 4), 0);
}

TEST(Simulation, PersonCoinDeterministicAndPurposeSensitive) {
  const DiseaseModel model = covid_model();
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(5));
  const bool a = sim.person_coin(7, 1, 0.5);
  EXPECT_EQ(sim.person_coin(7, 1, 0.5), a);
  // Over many persons, different purposes must decorrelate.
  int differs = 0;
  for (PersonId p = 0; p < 200; ++p) {
    if (sim.person_coin(p, 1, 0.5) != sim.person_coin(p, 2, 0.5)) ++differs;
  }
  EXPECT_GT(differs, 50);
}

// --- Serial/parallel equivalence — the partition-invariance property ----

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, TransitionsIdenticalToSerial) {
  const int ranks = GetParam();
  const DiseaseModel model = covid_model();
  const SimulationConfig config = base_config(40);
  SimOutput serial = run_simulation(test_region().network,
                                    test_region().population, model, config);
  const Partitioning parts =
      partition_network(test_region().network, static_cast<std::size_t>(ranks));
  SimOutput parallel =
      run_simulation_parallel(test_region().network, test_region().population,
                              model, config, parts, ranks);
  EXPECT_EQ(parallel.total_infections, serial.total_infections);
  ASSERT_EQ(parallel.transitions.size(), serial.transitions.size());
  auto key = [](const TransitionEvent& e) {
    return std::tuple(e.tick, e.person, e.exit_state, e.infector);
  };
  std::vector<std::tuple<Tick, PersonId, HealthStateId, PersonId>> s, p;
  for (const auto& e : serial.transitions) s.push_back(key(e));
  for (const auto& e : parallel.transitions) p.push_back(key(e));
  std::sort(s.begin(), s.end());
  std::sort(p.begin(), p.end());
  EXPECT_EQ(s, p);
  EXPECT_EQ(parallel.final_states, serial.final_states);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelEquivalence,
                         ::testing::Values(2, 3, 5, 8));

// --- Frontier hit ordering ------------------------------------------------

std::vector<std::uint64_t> ordered(std::uint64_t span,
                                   const std::vector<std::uint64_t>& keys,
                                   std::vector<std::uint32_t>& blocks,
                                   std::vector<std::uint64_t>& hits) {
  order_hits(
      span, keys.size(),
      [&keys](const auto& emit) {
        for (const std::uint64_t key : keys) emit(key);
      },
      blocks, hits);
  return hits;
}

TEST(HitOrder, MatchesStdSort) {
  // One pair of buffers for every case, as the kernel reuses its own.
  std::vector<std::uint32_t> blocks;
  std::vector<std::uint64_t> hits;
  Rng rng(2026);
  for (const std::uint64_t span :
       {std::uint64_t{1}, std::uint64_t{(1u << 11) - 1},
        std::uint64_t{(1u << 11) + 1}, std::uint64_t{(1u << 22) + 1},
        std::uint64_t{0xFFFFFFFFu}}) {
    for (const std::size_t count : {0, 1, 17, 1000, 100000}) {
      // Edges spread over the whole span, then every hit in the span's
      // first count-th (one block), then every hit on the last edge.
      const std::uint64_t narrow =
          std::max<std::uint64_t>(1, span / std::max<std::size_t>(1, count));
      for (const std::uint64_t width : {span, narrow, std::uint64_t{0}}) {
        std::set<std::uint64_t> distinct;
        while (distinct.size() < count) {
          const std::uint64_t edge =
              width == 0 ? span - 1 : rng.uniform_index(width);
          distinct.insert(pack_hit(
              edge, static_cast<std::uint32_t>(rng.uniform_index(1ull << 32))));
        }
        std::vector<std::uint64_t> keys(distinct.begin(), distinct.end());
        rng.shuffle(keys.begin(), keys.end());
        std::vector<std::uint64_t> expected = keys;
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(ordered(span, keys, blocks, hits), expected)
            << "span " << span << ", " << count << " hits, width " << width;
        if (count > 0) {
          EXPECT_LE(blocks.size(), std::max<std::size_t>(1, count / 4));
        }
      }
    }
  }
}

TEST(Simulation, RefusesRankEdgeRangeBeyond32Bits) {
  // A forged one-part partitioning claiming 2^32 in-edges: the push
  // kernel's packed hits cannot address them, so construction refuses.
  const Partitioning forged({Partition{0, test_region().network.node_count(),
                                       0, EdgeIndex{1} << 32}});
  try {
    run_simulation_parallel(test_region().network, test_region().population,
                            covid_model(), base_config(5), forged, 1);
    FAIL() << "a 2^32-edge rank was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("4294967296 in-edges"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelSim, CommunicationBytesReported) {
  const DiseaseModel model = covid_model();
  const Partitioning parts = partition_network(test_region().network, 4);
  const SimOutput out =
      run_simulation_parallel(test_region().network, test_region().population,
                              model, base_config(20), parts, 4);
  EXPECT_GT(out.communication_bytes, 0u);
}

TEST(ParallelSim, MismatchedPartitionCountRejected) {
  const DiseaseModel model = covid_model();
  const Partitioning parts = partition_network(test_region().network, 3);
  EXPECT_THROW(run_simulation_parallel(test_region().network,
                                       test_region().population, model,
                                       base_config(5), parts, 4),
               Error);
}

}  // namespace
}  // namespace epi
