#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "synthpop/activity.hpp"
#include "synthpop/generator.hpp"
#include "synthpop/ipf.hpp"
#include "synthpop/locations.hpp"
#include "synthpop/population.hpp"
#include "synthpop/us_states.hpp"
#include "synthpop/visits.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

// ---------------------------------------------------------- us_states ----

TEST(UsStates, FiftyOneRegions) {
  EXPECT_EQ(us_state_count(), 51u);
}

TEST(UsStates, TotalsMatchPublishedFigures) {
  // Paper: "about 300 million nodes" and "3140 counties".
  EXPECT_NEAR(static_cast<double>(total_us_population()), 328e6, 4e6);
  EXPECT_NEAR(static_cast<double>(total_us_counties()), 3140.0, 5.0);
}

TEST(UsStates, LookupByAbbrev) {
  EXPECT_EQ(state_by_abbrev("VA").name, std::string("Virginia"));
  EXPECT_EQ(state_by_abbrev("CA").counties, 58u);
  EXPECT_EQ(state_by_abbrev("DC").counties, 1u);
  EXPECT_THROW(state_by_abbrev("XX"), ConfigError);
}

TEST(UsStates, ExtremesOrdered) {
  // CA is the largest region, WY the smallest (Fig 6's axis extremes).
  for (const StateInfo& s : us_states()) {
    EXPECT_LE(s.population, state_by_abbrev("CA").population);
    EXPECT_GE(s.population, state_by_abbrev("WY").population);
  }
}

TEST(UsStates, HouseholdSizesPlausible) {
  for (const StateInfo& s : us_states()) {
    EXPECT_GT(s.avg_household_size, 2.0) << s.abbrev;
    EXPECT_LT(s.avg_household_size, 3.5) << s.abbrev;
  }
}

// ----------------------------------------------------------------- IPF ----

TEST(Ipf, FitsSimpleTable) {
  Matrix2D seed(2, 2, 1.0);
  const IpfResult result = iterative_proportional_fit(
      seed, {30.0, 70.0}, {40.0, 60.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.fitted.row_sum(0), 30.0, 1e-6);
  EXPECT_NEAR(result.fitted.row_sum(1), 70.0, 1e-6);
  EXPECT_NEAR(result.fitted.col_sum(0), 40.0, 1e-6);
  EXPECT_NEAR(result.fitted.col_sum(1), 60.0, 1e-6);
}

TEST(Ipf, PreservesStructuralZeros) {
  Matrix2D seed(2, 2, 1.0);
  seed.at(0, 0) = 0.0;
  const IpfResult result = iterative_proportional_fit(
      seed, {10.0, 20.0}, {12.0, 18.0});
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.fitted.at(0, 0), 0.0);
}

TEST(Ipf, SeedProportionsShapeInterior) {
  // With uniform marginals, the fitted table inherits the seed's odds.
  Matrix2D seed(2, 2, 1.0);
  seed.at(0, 0) = 4.0;  // strong diagonal preference
  seed.at(1, 1) = 4.0;
  const IpfResult result = iterative_proportional_fit(
      seed, {50.0, 50.0}, {50.0, 50.0});
  EXPECT_GT(result.fitted.at(0, 0), result.fitted.at(0, 1));
  EXPECT_GT(result.fitted.at(1, 1), result.fitted.at(1, 0));
}

TEST(Ipf, MismatchedTotalsThrow) {
  Matrix2D seed(2, 2, 1.0);
  EXPECT_THROW(
      iterative_proportional_fit(seed, {10.0, 10.0}, {30.0, 30.0}), Error);
}

TEST(Ipf, ZeroRowWithDemandThrows) {
  Matrix2D seed(2, 2, 0.0);
  seed.at(1, 0) = 1.0;
  seed.at(1, 1) = 1.0;
  EXPECT_THROW(
      iterative_proportional_fit(seed, {5.0, 5.0}, {5.0, 5.0}), Error);
}

// ----------------------------------------------------------- activity ----

TEST(Activity, SchedulesAreValid) {
  Rng rng(41);
  for (int occ = 0; occ < kOccupationCount; ++occ) {
    for (int trial = 0; trial < 50; ++trial) {
      const WeekSchedule week =
          assign_week_schedule(static_cast<Occupation>(occ), rng);
      for (const DaySchedule& day : week.days) {
        EXPECT_TRUE(schedule_is_valid(day));
      }
    }
  }
}

TEST(Activity, WorkersWorkOnWeekdays) {
  Rng rng(42);
  int with_work = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const WeekSchedule week = assign_week_schedule(Occupation::kWorker, rng);
    bool works = false;
    for (const Activity& a : week.days[kWednesday]) {
      works |= a.type == ActivityType::kWork;
    }
    with_work += works ? 1 : 0;
  }
  EXPECT_GT(with_work, 190);  // virtually all workers work Wednesday
}

TEST(Activity, StudentsAttendSchool) {
  Rng rng(43);
  const WeekSchedule week = assign_week_schedule(Occupation::kStudent, rng);
  bool school = false;
  for (const Activity& a : week.days[0]) {
    school |= a.type == ActivityType::kSchool;
  }
  EXPECT_TRUE(school);
}

TEST(Activity, NoSchoolOnWeekends) {
  Rng rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    const WeekSchedule week = assign_week_schedule(Occupation::kStudent, rng);
    for (int day : {5, 6}) {
      for (const Activity& a : week.days[day]) {
        EXPECT_NE(a.type, ActivityType::kSchool);
      }
    }
  }
}

TEST(Activity, ReligionConcentratesOnSunday) {
  Rng rng(45);
  int sunday = 0, wednesday = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const WeekSchedule week =
        assign_week_schedule(Occupation::kHomeOrRetired, rng);
    for (const Activity& a : week.days[6]) {
      sunday += a.type == ActivityType::kReligion ? 1 : 0;
    }
    for (const Activity& a : week.days[kWednesday]) {
      wednesday += a.type == ActivityType::kReligion ? 1 : 0;
    }
  }
  EXPECT_GT(sunday, 3 * wednesday);
}

TEST(Activity, AwayMinutes) {
  DaySchedule day = {Activity{ActivityType::kWork, 540, 480},
                     Activity{ActivityType::kShopping, 1040, 40}};
  EXPECT_EQ(away_minutes(day), 520u);
  EXPECT_TRUE(schedule_is_valid(day));
}

TEST(Activity, InvalidSchedulesDetected) {
  // Overlap.
  EXPECT_FALSE(schedule_is_valid({Activity{ActivityType::kWork, 100, 100},
                                  Activity{ActivityType::kOther, 150, 50}}));
  // Past midnight.
  EXPECT_FALSE(schedule_is_valid({Activity{ActivityType::kWork, 1400, 100}}));
  // Zero duration.
  EXPECT_FALSE(schedule_is_valid({Activity{ActivityType::kWork, 100, 0}}));
}

// ---------------------------------------------------------- locations ----

TEST(Locations, CountyLayoutSharesSumToOne) {
  Rng rng(46);
  const CountyLayout layout = make_county_layout(state_by_abbrev("VA"), rng);
  EXPECT_EQ(layout.fips.size(), 133u);
  double total = 0.0;
  for (double share : layout.population_share) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Zipf: shares decrease.
  for (std::size_t i = 1; i < layout.population_share.size(); ++i) {
    EXPECT_LE(layout.population_share[i], layout.population_share[i - 1]);
  }
}

TEST(Locations, FipsFollowStateCode) {
  Rng rng(47);
  const CountyLayout layout = make_county_layout(state_by_abbrev("VA"), rng);
  for (std::uint32_t fips : layout.fips) {
    EXPECT_EQ(fips / 1000, 51u);
    EXPECT_EQ(fips % 2, 1u);  // odd county codes, like real FIPS
  }
}

TEST(Locations, PoolsSizedByDemand) {
  Rng rng(48);
  const CountyLayout layout = make_county_layout(state_by_abbrev("DC"), rng);
  std::vector<std::array<std::uint64_t, kActivityTypeCount>> demand(1);
  demand[0][static_cast<int>(ActivityType::kWork)] = 200;
  demand[0][static_cast<int>(ActivityType::kSchool)] = 900;
  const LocationModel model(layout, demand, rng);
  EXPECT_EQ(model.pool(0, ActivityType::kWork).size(), 10u);   // 200 / 20
  EXPECT_EQ(model.pool(0, ActivityType::kSchool).size(), 2u);  // 900 / 450
  EXPECT_TRUE(model.pool(0, ActivityType::kReligion).empty());
}

TEST(Locations, AssignFallsBackAcrossCounties) {
  Rng rng(49);
  const CountyLayout layout = make_county_layout(state_by_abbrev("DE"), rng);
  std::vector<std::array<std::uint64_t, kActivityTypeCount>> demand(3);
  demand[0][static_cast<int>(ActivityType::kCollege)] = 100;  // only county 0
  const LocationModel model(layout, demand, rng);
  // A resident of county 2 must still find a college somewhere.
  const LocationId id = model.assign(2, ActivityType::kCollege, rng);
  EXPECT_EQ(model.location(id).type, ActivityType::kCollege);
}

// ---------------------------------------------------------- population ----

TEST(Population, CsvRoundTrip) {
  SynthPopConfig config;
  config.region = "WY";
  config.scale = 1.0 / 2000.0;
  const SyntheticRegion region = generate_region(config);
  std::stringstream buffer;
  region.population.write_csv(buffer);
  const Population restored = Population::read_csv(buffer, "WY");
  EXPECT_EQ(restored.person_count(), region.population.person_count());
  EXPECT_EQ(restored.household_count(), region.population.household_count());
  for (PersonId p = 0; p < restored.person_count(); p += 17) {
    EXPECT_EQ(restored.person(p).age, region.population.person(p).age);
    EXPECT_EQ(restored.person(p).household,
              region.population.person(p).household);
  }
}

TEST(Population, AgeGroupBoundaries) {
  EXPECT_EQ(age_group_of(0), AgeGroup::kPreschool);
  EXPECT_EQ(age_group_of(4), AgeGroup::kPreschool);
  EXPECT_EQ(age_group_of(5), AgeGroup::kSchool);
  EXPECT_EQ(age_group_of(17), AgeGroup::kSchool);
  EXPECT_EQ(age_group_of(18), AgeGroup::kAdult);
  EXPECT_EQ(age_group_of(49), AgeGroup::kAdult);
  EXPECT_EQ(age_group_of(50), AgeGroup::kOlderAdult);
  EXPECT_EQ(age_group_of(64), AgeGroup::kOlderAdult);
  EXPECT_EQ(age_group_of(65), AgeGroup::kSenior);
  EXPECT_THROW(age_group_of(-1), Error);
}

// ----------------------------------------------------------- generator ----

class GeneratedRegion : public ::testing::Test {
 protected:
  static const SyntheticRegion& region() {
    static const SyntheticRegion instance = [] {
      SynthPopConfig config;
      config.region = "VT";
      config.scale = 1.0 / 1000.0;
      config.seed = 77;
      return generate_region(config);
    }();
    return instance;
  }
};

TEST_F(GeneratedRegion, PersonCountTracksScale) {
  const double expected =
      static_cast<double>(state_by_abbrev("VT").population) / 1000.0;
  EXPECT_NEAR(static_cast<double>(region().population.person_count()),
              expected, expected * 0.02);
}

TEST_F(GeneratedRegion, HouseholdsAreContiguousAndSized) {
  const Population& pop = region().population;
  double total_size = 0.0;
  for (std::size_t h = 0; h < pop.household_count(); ++h) {
    const Household& hh = pop.household(h);
    EXPECT_GE(hh.size, 1);
    EXPECT_LE(hh.size, 7);
    total_size += hh.size;
    for (PersonId p = hh.first_person; p < hh.first_person + hh.size; ++p) {
      EXPECT_EQ(pop.person(p).household, h);
      EXPECT_EQ(pop.person(p).county, hh.county);
    }
  }
  const double mean_size =
      total_size / static_cast<double>(pop.household_count());
  EXPECT_NEAR(mean_size, state_by_abbrev("VT").avg_household_size, 0.35);
}

TEST_F(GeneratedRegion, ChildrenLiveWithAdults) {
  const Population& pop = region().population;
  for (std::size_t h = 0; h < pop.household_count(); ++h) {
    const Household& hh = pop.household(h);
    bool has_child = false, has_adult = false;
    for (PersonId p = hh.first_person; p < hh.first_person + hh.size; ++p) {
      const auto group = pop.age_group(p);
      has_child |= group == AgeGroup::kPreschool || group == AgeGroup::kSchool;
      has_adult |= group == AgeGroup::kAdult ||
                   group == AgeGroup::kOlderAdult || group == AgeGroup::kSenior;
    }
    if (has_child) EXPECT_TRUE(has_adult) << "household " << h;
  }
}

TEST_F(GeneratedRegion, AgeDistributionMatchesTargets) {
  const Population& pop = region().population;
  std::array<double, kAgeGroupCount> counts{};
  for (PersonId p = 0; p < pop.person_count(); ++p) {
    counts[static_cast<std::size_t>(pop.age_group(p))] += 1.0;
  }
  const auto target = us_age_distribution();
  for (int g = 0; g < kAgeGroupCount; ++g) {
    EXPECT_NEAR(counts[g] / pop.person_count(), target[g], 0.05) << "group " << g;
  }
}

TEST_F(GeneratedRegion, NetworkCoversPopulation) {
  EXPECT_EQ(region().network.node_count(), region().population.person_count());
  const NetworkStats stats = compute_stats(region().network);
  // Realistic density: mean contact degree in the 8-40 band.
  EXPECT_GT(stats.mean_degree, 8.0);
  EXPECT_LT(stats.mean_degree, 40.0);
  // Nearly everyone has at least a household contact.
  EXPECT_LT(static_cast<double>(stats.isolated_nodes),
            0.2 * static_cast<double>(stats.nodes));
}

TEST_F(GeneratedRegion, AllContextsPresent) {
  const NetworkStats stats = compute_stats(region().network);
  EXPECT_GT(stats.edges_by_context[static_cast<int>(ActivityType::kHome)], 0u);
  EXPECT_GT(stats.edges_by_context[static_cast<int>(ActivityType::kWork)], 0u);
  EXPECT_GT(stats.edges_by_context[static_cast<int>(ActivityType::kSchool)], 0u);
  EXPECT_GT(stats.edges_by_context[static_cast<int>(ActivityType::kShopping)],
            0u);
}

TEST_F(GeneratedRegion, DeterministicForSameSeed) {
  SynthPopConfig config;
  config.region = "VT";
  config.scale = 1.0 / 1000.0;
  config.seed = 77;
  const SyntheticRegion again = generate_region(config);
  EXPECT_EQ(again.network.content_hash(), region().network.content_hash());
  EXPECT_EQ(again.population.person_count(),
            region().population.person_count());
}

// Determinism tests compare two runs of the same code, so a change to the
// CSR edge order would pass them; these pins catch it.
TEST_F(GeneratedRegion, ContentHashPinned) {
  EXPECT_EQ(region().network.content_hash(), 3788971585256672657ULL);
  SynthPopConfig config;
  config.region = "WY";
  config.scale = 1.0 / 100.0;
  config.seed = 20200325;
  EXPECT_EQ(generate_region(config).network.content_hash(),
            99070880375428224ULL);
}

// Regions large enough that visit synthesis and the CSR scatters run on
// several workers on a multi-core host; both pins were taken before the
// build used more than one thread.
TEST_F(GeneratedRegion, ContentHashPinnedAboveTheWorkerGrain) {
  SynthPopConfig config;
  config.region = "VA";
  config.scale = 1.0 / 40.0;
  EXPECT_EQ(generate_region(config).network.content_hash(),
            4615992225080038864ULL);
  config.scale = 1.0 / 200.0;
  config.week_long = true;
  EXPECT_EQ(generate_region(config).network.content_hash(),
            3756003480828139568ULL);
}

// ------------------------------------------------------ visit grouping ----

/// Visits of `persons` persons in person order, up to three each at
/// distinct locations of `locations`, with some locations never visited.
std::vector<Visit> random_visits(std::size_t persons, std::size_t locations,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Visit> visits;
  for (PersonId p = 0; p < persons; ++p) {
    const auto first =
        static_cast<LocationId>(rng.uniform_index(locations / 2));
    const std::uint64_t count = rng.uniform_index(4);
    for (std::uint64_t k = 0; k < count; ++k) {
      visits.push_back(Visit{static_cast<LocationId>(first + k * 3), p,
                             static_cast<std::uint16_t>(k * 100),
                             static_cast<std::uint16_t>(k * 100 + 60),
                             static_cast<ActivityType>(1 + k)});
    }
  }
  return visits;
}

bool same_bytes(const std::vector<Visit>& a, const std::vector<Visit>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const Visit& x, const Visit& y) {
                      return x.location == y.location && x.person == y.person &&
                             x.start == y.start && x.end == y.end &&
                             x.person_activity == y.person_activity;
                    });
}

TEST(VisitGrouping, SortedByLocationThenPersonAtForcedWorkerCounts) {
  for (const std::size_t persons : {std::size_t{0}, std::size_t{2},
                                    std::size_t{3000}}) {
    const std::vector<Visit> visits = random_visits(persons, 400, 9);
    std::vector<Visit> expected = visits;
    std::sort(expected.begin(), expected.end(),
              [](const Visit& a, const Visit& b) {
                return a.location < b.location ||
                       (a.location == b.location && a.person < b.person);
              });
    for (const std::size_t workers : {1, 2, 3, 4, 7}) {
      const DayVisits day = group_by_location(visits, 400, workers);
      EXPECT_TRUE(same_bytes(day.visits, expected))
          << persons << " persons, " << workers << " workers";
      ASSERT_EQ(day.offsets.size(), 401u);
      for (std::size_t l = 0; l < 400; ++l) {
        for (std::uint64_t i = day.offsets[l]; i < day.offsets[l + 1]; ++i) {
          EXPECT_EQ(day.visits[i].location, l);
        }
      }
    }
  }
}

TEST(VisitGrouping, RejectsARepeatedVisit) {
  std::vector<Visit> visits = random_visits(50, 40, 3);
  visits.insert(visits.begin() + 1, visits.front());
  for (const std::size_t workers : {1, 3}) {
    EXPECT_THROW(group_by_location(visits, 40, workers), Error);
  }
}

TEST(VisitGrouping, RejectsAnUnknownLocation) {
  std::vector<Visit> visits = random_visits(50, 40, 4);
  visits.back().location = 40;
  EXPECT_THROW(group_by_location(visits, 40, 2), Error);
}

TEST(Generator, DifferentSeedsDifferentNetworks) {
  SynthPopConfig a, b;
  a.region = b.region = "DC";
  a.scale = b.scale = 1.0 / 2000.0;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(generate_region(a).network.content_hash(),
            generate_region(b).network.content_hash());
}

TEST(Generator, EdgeToNodeRatioStableAcrossStates) {
  // Fig 6's shape: edges scale linearly with nodes, so the contacts/person
  // ratio is roughly state-independent. At small generation scales the
  // Zipf tail of tiny counties depresses sub-location sizes, so we allow
  // a generous band: all ratios within a factor of 2 of each other.
  std::vector<double> ratios;
  for (const char* abbrev : {"WY", "VT", "DE", "RI"}) {
    SynthPopConfig config;
    config.region = abbrev;
    config.scale = 1.0 / 500.0;
    const SyntheticRegion region = generate_region(config);
    ratios.push_back(
        static_cast<double>(region.network.contact_count()) /
        static_cast<double>(region.population.person_count()));
  }
  for (double r : ratios) {
    EXPECT_GT(r, ratios[0] / 2.0);
    EXPECT_LT(r, ratios[0] * 2.0);
  }
}

TEST(Generator, WeekLongNetworkDenserThanProjection) {
  SynthPopConfig day_config;
  day_config.region = "VT";
  day_config.scale = 1.0 / 500.0;
  SynthPopConfig week_config = day_config;
  week_config.week_long = true;
  const SyntheticRegion day = generate_region(day_config);
  const SyntheticRegion week = generate_region(week_config);
  EXPECT_EQ(week.population.person_count(), day.population.person_count());
  // The week-long G holds several days of contacts: expect 3-8x the
  // Wednesday projection (weekends are lighter than weekdays).
  const double ratio = static_cast<double>(week.network.contact_count()) /
                       static_cast<double>(day.network.contact_count());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 8.0);
  // Week-long mean contacts/person approaches the production ~26.
  const double per_person =
      static_cast<double>(week.network.contact_count()) /
      static_cast<double>(week.population.person_count());
  EXPECT_GT(per_person, 12.0);
  EXPECT_LT(per_person, 45.0);
}

TEST(Generator, RejectsBadScale) {
  SynthPopConfig config;
  config.scale = 0.0;
  EXPECT_THROW(generate_region(config), Error);
  config.scale = 1.5;
  EXPECT_THROW(generate_region(config), Error);
}

}  // namespace
}  // namespace epi
