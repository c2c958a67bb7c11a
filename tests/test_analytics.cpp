#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analytics/aggregate.hpp"
#include "analytics/costs.hpp"
#include "analytics/dendrogram.hpp"
#include "analytics/ensemble.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

struct SimFixture {
  SyntheticRegion region;
  DiseaseModel model = covid_model();
  SimOutput output;
  Tick ticks = 80;

  SimFixture() {
    SynthPopConfig config;
    config.region = "DC";
    config.scale = 1.0 / 300.0;
    config.seed = 99;
    region = generate_region(config);
    SimulationConfig sim_config;
    sim_config.num_ticks = ticks;
    sim_config.seed = 777;
    sim_config.seeds = {SeedSpec{0, 10, 0}};
    CovidParams params;
    params.transmissibility = 0.3;  // big outbreak so all states appear
    model = covid_model(params);
    output = run_simulation(region.network, region.population, model,
                            sim_config);
  }
};

const SimFixture& fixture() {
  static const SimFixture instance;
  return instance;
}

// ----------------------------------------------------------- summary cube -

TEST(SummaryCube, OccupancyConservedEachTick) {
  const auto& f = fixture();
  const SummaryCube cube =
      build_summary_cube(f.output, f.region.population, f.model, f.ticks);
  for (Tick t = 0; t < f.ticks; t += 7) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < f.model.state_count(); ++s) {
      total += cube.occupancy(t, static_cast<HealthStateId>(s));
    }
    EXPECT_EQ(total, f.region.population.person_count()) << "tick " << t;
  }
}

TEST(SummaryCube, CumulativeMonotone) {
  const auto& f = fixture();
  const SummaryCube cube =
      build_summary_cube(f.output, f.region.population, f.model, f.ticks);
  const HealthStateId exposed = f.model.state_id(covid_states::kExposed);
  for (Tick t = 1; t < f.ticks; ++t) {
    EXPECT_GE(cube.cumulative(t, exposed), cube.cumulative(t - 1, exposed));
  }
}

TEST(SummaryCube, EnteredSumsToCumulative) {
  const auto& f = fixture();
  const SummaryCube cube =
      build_summary_cube(f.output, f.region.population, f.model, f.ticks);
  const HealthStateId recovered = f.model.state_id(covid_states::kRecovered);
  std::uint64_t entered_total = 0;
  for (Tick t = 0; t < f.ticks; ++t) {
    entered_total += cube.entered(t, recovered);
  }
  EXPECT_EQ(entered_total, cube.cumulative(f.ticks - 1, recovered));
}

TEST(SummaryCube, SusceptibleOccupancyDecreases) {
  const auto& f = fixture();
  const SummaryCube cube =
      build_summary_cube(f.output, f.region.population, f.model, f.ticks);
  const HealthStateId s = f.model.state_id(covid_states::kSusceptible);
  EXPECT_LT(cube.occupancy(f.ticks - 1, s), cube.occupancy(0, s));
}

TEST(SummaryCube, ByteSizeMatchesDimensions) {
  const SummaryCube cube(365, 15);
  // ticks x (states x age groups) x 3 counts x 8 bytes — the Table I
  // summary-size accounting unit.
  EXPECT_EQ(cube.byte_size(), 365ull * 15 * kAgeGroupCount * 3 * 8);
}

TEST(SummaryCube, IndexBoundsChecked) {
  SummaryCube cube(10, 5);
  EXPECT_THROW(cube.at(10, 0, AgeGroup::kAdult), Error);
  EXPECT_THROW(cube.at(0, 5, AgeGroup::kAdult), Error);
}

// ------------------------------------------------------ county aggregation -

TEST(Aggregate, CountySeriesCoverAllCounties) {
  const auto& f = fixture();
  const CountySeries series =
      aggregate_by_county(f.output, f.region.population, f.model, f.ticks,
                          AggregationTarget::kNewConfirmed);
  EXPECT_EQ(series.values.size(), f.region.population.county_count());
  EXPECT_EQ(series.county_fips.size(), series.values.size());
}

TEST(Aggregate, NewConfirmedCountsFirstSymptomaticEntryOnly) {
  const auto& f = fixture();
  const auto state_series =
      aggregate_state_series(f.output, f.region.population, f.model, f.ticks,
                             AggregationTarget::kNewConfirmed);
  double total = 0.0;
  for (double x : state_series) total += x;
  // Replay: count entries into the symptomatic class. Persons who recover
  // via RX failure can be reinfected, so entries may exceed distinct
  // persons — each entry is a new confirmed case.
  std::size_t entries = 0;
  std::set<PersonId> distinct;
  std::vector<HealthStateId> current(f.region.population.person_count(),
                                     f.model.initial_state());
  for (const auto& event : f.output.transitions) {
    const bool was =
        f.model.state(current[event.person]).counts_as_symptomatic;
    const bool is = f.model.state(event.exit_state).counts_as_symptomatic;
    if (!was && is) {
      ++entries;
      distinct.insert(event.person);
    }
    current[event.person] = event.exit_state;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(entries));
  EXPECT_GE(entries, distinct.size());
}

TEST(Aggregate, CumulativeConfirmedMonotone) {
  const auto& f = fixture();
  const auto series =
      aggregate_state_series(f.output, f.region.population, f.model, f.ticks,
                             AggregationTarget::kCumulativeConfirmed);
  for (std::size_t t = 1; t < series.size(); ++t) {
    EXPECT_GE(series[t], series[t - 1]);
  }
  EXPECT_GT(series.back(), 0.0);
}

TEST(Aggregate, HospitalOccupancyNonNegativeAndPeaks) {
  const auto& f = fixture();
  const auto series =
      aggregate_state_series(f.output, f.region.population, f.model, f.ticks,
                             AggregationTarget::kHospitalOccupancy);
  double peak = 0.0;
  for (double x : series) {
    EXPECT_GE(x, 0.0);
    peak = std::max(peak, x);
  }
  EXPECT_GT(peak, 0.0);  // outbreak large enough to hospitalize
}

TEST(Aggregate, DeathsMonotoneAndBelowInfections) {
  const auto& f = fixture();
  const auto deaths =
      aggregate_state_series(f.output, f.region.population, f.model, f.ticks,
                             AggregationTarget::kCumulativeDeaths);
  for (std::size_t t = 1; t < deaths.size(); ++t) {
    EXPECT_GE(deaths[t], deaths[t - 1]);
  }
  EXPECT_LT(deaths.back(), static_cast<double>(f.output.total_infections));
}

TEST(Aggregate, StateSeriesIsCountySum) {
  const auto& f = fixture();
  const CountySeries county =
      aggregate_by_county(f.output, f.region.population, f.model, f.ticks,
                          AggregationTarget::kCumulativeConfirmed);
  const auto state =
      aggregate_state_series(f.output, f.region.population, f.model, f.ticks,
                             AggregationTarget::kCumulativeConfirmed);
  for (Tick t = 0; t < f.ticks; t += 13) {
    double sum = 0.0;
    for (const auto& row : county.values) sum += row[t];
    EXPECT_DOUBLE_EQ(sum, state[t]);
  }
}

TEST(Aggregate, RawOutputBytesProportionalToTransitions) {
  const auto& f = fixture();
  EXPECT_EQ(raw_output_bytes(f.output), f.output.transitions.size() * 40);
}

// ----------------------------------------------------------- dendrogram ---

TEST(Dendrogram, ForestAccountsForEveryFirstInfection) {
  const auto& f = fixture();
  const TransmissionForest forest(f.output.transitions);
  // The forest tracks FIRST infections: persons reinfected after RX
  // failure do not appear twice, so the edge count equals the number of
  // distinct persons ever infected by a contact.
  std::set<PersonId> infected_by_contact;
  for (const auto& event : f.output.transitions) {
    if (event.infector != kNoPerson) infected_by_contact.insert(event.person);
  }
  EXPECT_EQ(forest.infection_count(), infected_by_contact.size());
  EXPECT_LE(forest.infection_count(), f.output.total_infections);
  EXPECT_EQ(forest.tree_count(), 10u);  // the 10 seeds
}

TEST(Dendrogram, TreeSizesSumToInfectedPopulation) {
  const auto& f = fixture();
  const TransmissionForest forest(f.output.transitions);
  std::size_t total = 0;
  for (PersonId root : forest.roots()) total += forest.tree_size(root);
  EXPECT_EQ(total, forest.infection_count() + forest.tree_count());
}

TEST(Dendrogram, DepthPositiveForSpreadingTrees) {
  const auto& f = fixture();
  const TransmissionForest forest(f.output.transitions);
  std::size_t max_depth = 0;
  for (PersonId root : forest.roots()) {
    max_depth = std::max(max_depth, forest.tree_depth(root));
  }
  EXPECT_GT(max_depth, 2u);  // multi-generation chains exist
}

TEST(Dendrogram, InfectionTicksIncreaseDownTree) {
  const auto& f = fixture();
  const TransmissionForest forest(f.output.transitions);
  for (PersonId root : forest.roots()) {
    std::vector<PersonId> stack = {root};
    while (!stack.empty()) {
      const PersonId node = stack.back();
      stack.pop_back();
      for (PersonId child : forest.children(node)) {
        EXPECT_GT(forest.infection_tick(child), forest.infection_tick(node));
        stack.push_back(child);
      }
    }
  }
}

TEST(Dendrogram, MeanOffspringInPlausibleRange) {
  const auto& f = fixture();
  const TransmissionForest forest(f.output.transitions);
  const double r_estimate = forest.mean_offspring();
  EXPECT_GT(r_estimate, 0.3);
  EXPECT_LT(r_estimate, 6.0);
}

TEST(Dendrogram, EmptyLogYieldsEmptyForest) {
  const TransmissionForest forest({});
  EXPECT_EQ(forest.tree_count(), 0u);
  EXPECT_EQ(forest.infection_count(), 0u);
  EXPECT_EQ(forest.infection_tick(42), -1);
}

// The forest as it was built before the flat arrays: hash maps keyed by
// person, kept here as the reference the flat forest must reproduce.
class HashMapForest {
 public:
  explicit HashMapForest(const std::vector<TransitionEvent>& transitions) {
    for (const TransitionEvent& event : transitions) {
      last_tick_ = std::max(last_tick_, event.tick);
      if (infected_at_.count(event.person) != 0) continue;
      if (event.infector != kNoPerson) {
        infected_at_[event.person] = event.tick;
        infection_order_.emplace_back(event.person, event.tick);
        children_[event.infector].push_back(event.person);
        ++edges_;
      } else if (event.exit_state != kNoState) {
        infected_at_[event.person] = event.tick;
        infection_order_.emplace_back(event.person, event.tick);
        roots_.push_back(event.person);
      }
    }
  }

  std::size_t tree_count() const { return roots_.size(); }
  std::size_t infection_count() const { return edges_; }
  const std::vector<PersonId>& roots() const { return roots_; }
  std::vector<PersonId> children(PersonId p) const {
    const auto it = children_.find(p);
    return it == children_.end() ? std::vector<PersonId>{} : it->second;
  }
  Tick infection_tick(PersonId p) const {
    const auto it = infected_at_.find(p);
    return it == infected_at_.end() ? -1 : it->second;
  }
  std::size_t tree_size(PersonId root) const {
    std::size_t size = 0;
    std::vector<PersonId> stack = {root};
    while (!stack.empty()) {
      const PersonId node = stack.back();
      stack.pop_back();
      ++size;
      for (PersonId child : children(node)) stack.push_back(child);
    }
    return size;
  }
  std::size_t tree_depth(PersonId root) const {
    std::size_t max_depth = 0;
    std::vector<std::pair<PersonId, std::size_t>> stack = {{root, 0}};
    while (!stack.empty()) {
      const auto [node, depth] = stack.back();
      stack.pop_back();
      max_depth = std::max(max_depth, depth);
      for (PersonId child : children(node)) {
        stack.emplace_back(child, depth + 1);
      }
    }
    return max_depth;
  }
  double mean_offspring(Tick horizon) const {
    std::size_t eligible = 0;
    std::size_t offspring = 0;
    for (const auto& [person, tick] : infection_order_) {
      if (tick + horizon > last_tick_) continue;
      ++eligible;
      offspring += children(person).size();
    }
    if (eligible == 0) return 0.0;
    return static_cast<double>(offspring) / static_cast<double>(eligible);
  }
  std::uint64_t byte_size() const { return (edges_ + roots_.size()) * 24; }

 private:
  std::unordered_map<PersonId, std::vector<PersonId>> children_;
  std::unordered_map<PersonId, Tick> infected_at_;
  std::vector<std::pair<PersonId, Tick>> infection_order_;
  std::vector<PersonId> roots_;
  std::size_t edges_ = 0;
  Tick last_tick_ = 0;
};

// Every accessor of the flat forest against the reference, over every id
// up to the log's largest (person or infector) + 2.
void expect_matches_reference(const std::vector<TransitionEvent>& log) {
  const TransmissionForest forest(log);
  const HashMapForest reference(log);
  EXPECT_EQ(forest.roots(), reference.roots());
  EXPECT_EQ(forest.tree_count(), reference.tree_count());
  EXPECT_EQ(forest.infection_count(), reference.infection_count());
  EXPECT_EQ(forest.byte_size(), reference.byte_size());
  PersonId largest = 0;
  Tick last_tick = 0;
  for (const TransitionEvent& e : log) {
    largest = std::max(largest, e.person);
    if (e.infector != kNoPerson) largest = std::max(largest, e.infector);
    last_tick = std::max(last_tick, e.tick);
  }
  for (PersonId p = 0; p <= largest + 2; ++p) {
    const auto children = forest.children(p);
    ASSERT_EQ(std::vector<PersonId>(children.begin(), children.end()),
              reference.children(p))
        << "person " << p;
    ASSERT_EQ(forest.infection_tick(p), reference.infection_tick(p))
        << "person " << p;
  }
  EXPECT_TRUE(forest.children(kNoPerson).empty());
  EXPECT_EQ(forest.infection_tick(kNoPerson), -1);
  for (PersonId root : reference.roots()) {
    EXPECT_EQ(forest.tree_size(root), reference.tree_size(root));
    EXPECT_EQ(forest.tree_depth(root), reference.tree_depth(root));
  }
  for (Tick horizon : {Tick{0}, Tick{7}, Tick{21}, last_tick + 1}) {
    EXPECT_EQ(forest.mean_offspring(horizon), reference.mean_offspring(horizon))
        << "horizon " << horizon;
  }
}

TEST(Dendrogram, MatchesHashMapReferenceOnFixture) {
  const auto& f = fixture();
  ASSERT_GT(TransmissionForest(f.output.transitions).infection_count(), 100u);
  expect_matches_reference(f.output.transitions);
}

TEST(Dendrogram, MatchesHashMapReferenceOnFourRankReplicate) {
  SynthPopConfig pop_config;
  pop_config.region = "VA";
  pop_config.scale = 1.0 / 400.0;
  const SyntheticRegion region = generate_region(pop_config);
  SimulationConfig config;
  config.num_ticks = 120;
  config.seed = 42;
  config.seeds = {SeedSpec{0, 5, 0}, SeedSpec{1, 5, 0}, SeedSpec{2, 5, 0}};
  const SimOutput out = run_simulation_parallel(
      region.network, region.population, covid_model(), config,
      partition_network(region.network, 4), 4);
  ASSERT_GT(out.total_infections, 1000u);
  expect_matches_reference(out.transitions);
}

TEST(Dendrogram, MatchesHashMapReferenceOnHandBuiltLogs) {
  constexpr HealthStateId kE = 1, kI = 2, kR = 3;
  // Person 3 is seeded; 10 and 7 are its children, out of id order. 10
  // recovers and is infected again (RX failure): only the first counts.
  // 20's first event has no infector, so a later infection of 20 is not
  // an edge; 25's first event has neither infector nor state, so its
  // later infection is. Infector 2000 never appears as a person, and the
  // ids leave gaps.
  const std::vector<TransitionEvent> log = {
      {0, 3, kE, kNoPerson},       {2, 10, kE, 3},
      {2, 7, kE, 3},               {3, 3, kI, kNoPerson},
      {4, 20, kE, kNoPerson},      {4, 25, kNoState, kNoPerson},
      {5, 20, kE, 3},              {6, 25, kE, 10},
      {6, 10, kR, kNoPerson},      {8, 5, kE, 2000},
      {9, 10, kE, 7},              {9, 1000, kE, 25},
      {12, 1000, kI, kNoPerson}};
  expect_matches_reference(log);
  const TransmissionForest forest(log);
  EXPECT_EQ(forest.roots(), (std::vector<PersonId>{3, 20}));
  EXPECT_EQ(forest.infection_tick(10), 2);
  EXPECT_EQ(forest.infection_tick(25), 6);
  ASSERT_EQ(forest.children(3).size(), 2u);
  EXPECT_EQ(forest.children(3)[0], 10u);
  EXPECT_EQ(forest.children(3)[1], 7u);
  EXPECT_EQ(forest.tree_depth(3), 3u);  // 3 -> 10 -> 25 -> 1000

  // A log that is only a causeless first event, and the empty log.
  expect_matches_reference({{0, 4, kE, kNoPerson}});
  expect_matches_reference({});
}

// ------------------------------------------------------------- ensemble ---

TEST(Ensemble, BandOrderingAndCoverage) {
  std::vector<std::vector<double>> curves;
  for (int i = 0; i < 50; ++i) {
    curves.push_back({static_cast<double>(i), static_cast<double>(2 * i)});
  }
  const EnsembleBand band = ensemble_band(curves, 0.9);
  EXPECT_LE(band.lo[0], band.median[0]);
  EXPECT_LE(band.median[0], band.hi[0]);
  EXPECT_NEAR(band.median[0], 24.5, 0.01);
  EXPECT_NEAR(band.median[1], 49.0, 0.5);
  // An interior observation is covered; an extreme one is not.
  EXPECT_DOUBLE_EQ(band_coverage(band, {25.0, 50.0}), 1.0);
  EXPECT_DOUBLE_EQ(band_coverage(band, {-10.0, 500.0}), 0.0);
}

TEST(Ensemble, MismatchedLengthsRejected) {
  EXPECT_THROW(ensemble_band({{1.0, 2.0}, {1.0}}), Error);
  const EnsembleBand band = ensemble_band({{1.0, 2.0}});
  EXPECT_THROW(band_coverage(band, {1.0}), Error);
}

// ----------------------------------------------------------------- costs --

TEST(Costs, BreakdownConsistentWithCube) {
  const auto& f = fixture();
  const SummaryCube cube =
      build_summary_cube(f.output, f.region.population, f.model, f.ticks);
  const MedicalCostBreakdown costs = medical_costs(cube, f.model);
  EXPECT_GT(costs.attended_cases, 0u);
  EXPECT_GT(costs.hospital_days, 0u);
  EXPECT_GT(costs.total(), 0.0);
  EXPECT_DOUBLE_EQ(costs.total(), costs.outpatient + costs.hospital +
                                      costs.ventilator + costs.death);
  // Ventilator days are a subset of ICU time; far fewer than hospital days.
  EXPECT_LT(costs.ventilator_days, costs.hospital_days);
}

TEST(Costs, ScalesWithParameters) {
  const auto& f = fixture();
  const SummaryCube cube =
      build_summary_cube(f.output, f.region.population, f.model, f.ticks);
  MedicalCostParams expensive;
  expensive.hospital_day = 25000.0;
  const auto base = medical_costs(cube, f.model);
  const auto high = medical_costs(cube, f.model, expensive);
  EXPECT_DOUBLE_EQ(high.hospital, base.hospital * 10.0);
  EXPECT_EQ(high.hospital_days, base.hospital_days);
}

}  // namespace
}  // namespace epi
