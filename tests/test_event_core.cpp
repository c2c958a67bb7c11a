// The transmission engine end to end: a serial oracle pinned while four
// exchange modes still existed and agreed on it, serial/parallel
// equivalence at 1/2/4/8 ranks, the parallel merge order and the whole
// merged log, progression accounting, quiescence tick skipping, and the
// collectives a parallel tick issues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "epihiper/interventions.hpp"
#include "epihiper/parallel.hpp"
#include "epihiper/scripted.hpp"
#include "obs/metrics.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace epi {
namespace {

// --- Fixtures -------------------------------------------------------------

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

// VA at 1/400 (21,339 persons): an uncontrolled epidemic that pulls on
// most ticks and puts thousands of hits on a rank on many push ticks.
const SyntheticRegion& frontier_region() {
  static const SyntheticRegion region = [] {
    SynthPopConfig config;
    config.region = "VA";
    config.scale = 1.0 / 400.0;
    return generate_region(config);
  }();
  return region;
}

SimulationConfig frontier_config() {
  SimulationConfig config;
  config.num_ticks = 120;
  config.seed = 42;
  config.seeds = {SeedSpec{0, 5, 0}, SeedSpec{1, 5, 0}, SeedSpec{2, 5, 0}};
  return config;
}

DiseaseModel model_with(double transmissibility) {
  CovidParams params;
  params.transmissibility = transmissibility;
  return covid_model(params);
}

// Contact tracing routes each traced person to the rank that owns them,
// which isolates them, and isolation flips the advertised records of
// still-infectious persons (changed-record halo deltas, not just
// became/left).
InterventionFactory stacked_interventions() {
  return [] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<VoluntaryHomeIsolation>(
            VoluntaryHomeIsolation::Config{0.7, 14, 0}),
        std::make_shared<SchoolClosure>(SchoolClosure::Config{10, 60}),
        std::make_shared<StayAtHome>(StayAtHome::Config{20, 45, 0.6}),
        std::make_shared<ContactTracing>(
            ContactTracing::Config{2, 5, 0.5, 0.7, 10})};
  };
}

SimOutput run_dc(const SimulationConfig& config, const DiseaseModel& model,
                 const InterventionFactory& factory = nullptr) {
  return run_simulation(test_region().network, test_region().population,
                        model, config, factory);
}

SimOutput run_on_ranks(int ranks, const SyntheticRegion& region,
                       const SimulationConfig& config,
                       const DiseaseModel& model,
                       const InterventionFactory& factory = nullptr) {
  const Partitioning parts =
      partition_network(region.network, static_cast<std::size_t>(ranks));
  return run_simulation_parallel(region.network, region.population, model,
                                 config, parts, ranks, factory);
}

/// The transition log, final states and incidence. The serial engine logs
/// a tick's transitions in processing order and the parallel merge by
/// person, so rank counts compare with the log as a sorted set.
std::string epidemic_digest(const SimOutput& out, bool as_set) {
  std::vector<TransitionEvent> events = out.transitions;
  if (as_set) {
    std::sort(events.begin(), events.end(),
              [](const TransitionEvent& a, const TransitionEvent& b) {
                return std::tie(a.tick, a.person, a.exit_state, a.infector) <
                       std::tie(b.tick, b.person, b.exit_state, b.infector);
              });
  }
  std::string bytes;
  for (const TransitionEvent& e : events) {
    bytes.append(reinterpret_cast<const char*>(&e.tick), sizeof(e.tick));
    bytes.append(reinterpret_cast<const char*>(&e.person), sizeof(e.person));
    bytes.append(reinterpret_cast<const char*>(&e.exit_state),
                 sizeof(e.exit_state));
    bytes.append(reinterpret_cast<const char*>(&e.infector),
                 sizeof(e.infector));
  }
  bytes.append(reinterpret_cast<const char*>(out.final_states.data()),
               out.final_states.size() * sizeof(HealthStateId));
  const auto& incidence = out.new_infections_per_tick;
  bytes.append(reinterpret_cast<const char*>(incidence.data()),
               incidence.size() * sizeof(std::uint64_t));
  return to_hex(hash128(bytes));
}

// --- Pinned oracle --------------------------------------------------------

// Recorded while the broadcast, ghost, event and adaptive exchange modes
// still existed: on each configuration all four gave these digests
// serially and the same sets at 1/2/4/8 ranks. The kernel split is the
// adaptive mode's, which the engine's density switch reproduces.
struct Pin {
  const char* emission;  // serial log in emission order
  const char* set;       // log as a sorted set, any rank count
  std::uint64_t infections;
  std::uint64_t pull_ticks;
  std::uint64_t push_ticks;
};

constexpr Pin kDcBase = {"8cee73952914df89020731281f9843c0",
                         "67cd6293839beaf5434c7884849cfd9c", 1453, 35, 22};
constexpr Pin kDcLateSeeds = {"a74031231072f026f103011df917fe2b",
                              "ac2889556b7d559e80635618fdded703", 236, 4, 24};
constexpr Pin kDcStackedHot = {"af932e56324f0d5a64ae4e0394345c5b",
                               "25a3fe11aefd5d8aa0636ff9f810102b", 195, 1,
                               49};
constexpr Pin kDcStackedMild = {"8fd1f3c83320efb5187e31e0d93e2e50",
                                "b329539922a7b9155e652560227285d8", 62, 0,
                                50};
constexpr Pin kVaFrontier = {"d9b6c5910dd1c46897ccfc7c3f53af59",
                             "d118ead53f1ad544d866b774e978ffdd", 14983, 69,
                             48};

void expect_pinned(const SimOutput& out, const Pin& pin, bool serial) {
  if (serial) {
    EXPECT_EQ(epidemic_digest(out, false), pin.emission);
  }
  EXPECT_EQ(epidemic_digest(out, true), pin.set);
  EXPECT_EQ(out.total_infections, pin.infections);
  EXPECT_EQ(out.broadcast_ticks, pin.pull_ticks);
  EXPECT_EQ(out.ghost_ticks, pin.push_ticks);
  EXPECT_EQ(out.ticks_executed, pin.pull_ticks + pin.push_ticks);
}

TEST(EventCore, SerialEventMatchesBothLegacyModesByteForByte) {
  const SimOutput out = run_dc(base_config(60), covid_model());
  expect_pinned(out, kDcBase, true);
  // Dense: the epidemic crosses the 2% switch, so both kernels run.
  EXPECT_GT(out.broadcast_ticks, 0u);
  EXPECT_GT(out.ghost_ticks, 0u);
  EXPECT_EQ(out.ticks_executed + out.ticks_skipped, 60u);
  EXPECT_EQ(out.ghost_exchange_bytes, 0u);  // serial runs exchange nothing
}

TEST(EventCore, SerialAdaptiveMatchesBothFixedModesUnderInterventions) {
  const SimOutput hot =
      run_dc(base_config(50), model_with(0.5), stacked_interventions());
  expect_pinned(hot, kDcStackedHot, true);
  EXPECT_GT(hot.broadcast_ticks, 0u);
  EXPECT_GT(hot.ghost_ticks, 0u);
  // Sparse: the stack keeps the milder epidemic under 2%, push only.
  const SimOutput mild =
      run_dc(base_config(50), model_with(0.25), stacked_interventions());
  expect_pinned(mild, kDcStackedMild, true);
  EXPECT_EQ(mild.broadcast_ticks, 0u);
}

const SimOutput& frontier_serial() {
  static const SimOutput out =
      run_simulation(frontier_region().network, frontier_region().population,
                     covid_model(), frontier_config());
  return out;
}

TEST(ParallelFrontier, SerialKernelsMatchPinnedDigest) {
  const SimOutput& out = frontier_serial();
  expect_pinned(out, kVaFrontier, true);
  EXPECT_GT(out.broadcast_ticks, 0u);
  EXPECT_GT(out.ghost_ticks, 0u);
}

TEST(EventCore, SameSeedSameEventOrderAcrossRuns) {
  const SimOutput a = run_dc(base_config(60), covid_model());
  const SimOutput b = run_dc(base_config(60), covid_model());
  EXPECT_EQ(epidemic_digest(a, false), epidemic_digest(b, false));
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.events_stale, b.events_stale);
  EXPECT_EQ(a.ticks_skipped, b.ticks_skipped);
}

/// The whole merged log, not just its set or per-person sequences: at any
/// rank count it must be the serial log stable-sorted by (tick, person).
/// Compared field by field, since TransitionEvent has padding bytes.
void expect_merged_serial_log(const SimOutput& parallel,
                              const SimOutput& serial) {
  std::vector<TransitionEvent> expected = serial.transitions;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TransitionEvent& a, const TransitionEvent& b) {
                     return std::tie(a.tick, a.person) <
                            std::tie(b.tick, b.person);
                   });
  const std::vector<TransitionEvent>& merged = parallel.transitions;
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const TransitionEvent& a = merged[i];
    const TransitionEvent& b = expected[i];
    ASSERT_TRUE(a.tick == b.tick && a.person == b.person &&
                a.exit_state == b.exit_state && a.infector == b.infector)
        << "event " << i << ": merged (" << a.tick << ", " << a.person
        << ", " << a.exit_state << ", " << a.infector << "), expected ("
        << b.tick << ", " << b.person << ", " << b.exit_state << ", "
        << b.infector << ")";
  }
}

// --- Serial vs parallel (each suite compares 1/2/4/8 ranks with the pin
// recorded from the serial broadcast run; the CommChecker and forked-rank
// CI passes re-run the suites matching "Parallel" or "Ghost") ------------

class GhostEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GhostEquivalence, MatchesSerialBroadcast) {
  const SimOutput out =
      run_on_ranks(GetParam(), test_region(), base_config(60), covid_model());
  expect_pinned(out, kDcBase, false);
  if (GetParam() > 1) {
    EXPECT_GT(out.ghost_exchange_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GhostEquivalence,
                         ::testing::Values(1, 2, 4, 8));

// Late seeds: every rank must bid to skip the dormant prefix, so the
// ranks skip exactly the ticks the serial run skips.
class EventParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EventParallelEquivalence, MatchesSerialBroadcast) {
  SimulationConfig config = base_config(60);
  config.seeds = {SeedSpec{0, 10, 30}};
  const SimOutput serial = run_dc(config, covid_model());
  const SimOutput out =
      run_on_ranks(GetParam(), test_region(), config, covid_model());
  expect_pinned(out, kDcLateSeeds, false);
  EXPECT_GE(out.ticks_skipped, 29u);
  EXPECT_EQ(out.ticks_skipped, serial.ticks_skipped);
  EXPECT_EQ(out.ticks_executed + out.ticks_skipped, 60u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, EventParallelEquivalence,
                         ::testing::Values(1, 2, 4, 8));

// The hot stack crosses the 2% switch: both kernels run on every rank
// count, with the intervention stack acting between them.
class AdaptiveParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveParallelEquivalence, MatchesSerialBroadcastUnderInterventions) {
  expect_pinned(run_on_ranks(GetParam(), test_region(), base_config(50),
                             model_with(0.5), stacked_interventions()),
                kDcStackedHot, false);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AdaptiveParallelEquivalence,
                         ::testing::Values(2, 4, 8));

// The mild stack stays push-only, so every tick goes through the ghost
// halo, carrying the changed records of persons their owners isolated.
class GhostHaloInterventionEquivalence
    : public ::testing::TestWithParam<int> {};

TEST_P(GhostHaloInterventionEquivalence, MatchesSerialBroadcast) {
  const SimOutput out =
      run_on_ranks(GetParam(), test_region(), base_config(50),
                   model_with(0.25), stacked_interventions());
  expect_pinned(out, kDcStackedMild, false);
  if (GetParam() > 1) {
    EXPECT_GT(out.ghost_exchange_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GhostHaloInterventionEquivalence,
                         ::testing::Values(1, 2, 4, 8));

// Partition slack, in percent of the mean part's edge count: the sweep's
// epsilon moves every part boundary, and with it every rank's halo.
struct Slack {
  std::uint8_t percent;
};

class ParallelFrontierRanks
    : public ::testing::TestWithParam<std::tuple<int, Slack>> {};

TEST_P(ParallelFrontierRanks, MatchesSerialBroadcast) {
  const auto [ranks, slack] = GetParam();
  const ContactNetwork& network = frontier_region().network;
  const std::uint64_t epsilon = network.edge_count() * slack.percent / 100 /
                                static_cast<std::uint64_t>(ranks);
  const Partitioning parts =
      partition_network(network, static_cast<std::size_t>(ranks), epsilon);
  if (slack.percent > 0) {
    EXPECT_NE(parts.part(0).node_end,
              partition_network(network, static_cast<std::size_t>(ranks))
                  .part(0)
                  .node_end);
  }
  const SimOutput out =
      run_simulation_parallel(network, frontier_region().population,
                              covid_model(), frontier_config(), parts, ranks);
  expect_pinned(out, kVaFrontier, false);
  expect_merged_serial_log(out, frontier_serial());
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, ParallelFrontierRanks,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(Slack{0}, Slack{2})));

// A script that moves every Exposed person on to Asymptomatic in the tick
// they became Exposed: each person seeded or infected in a tick logs two
// transitions under one (tick, person) key, and their first progression
// is superseded.
InterventionFactory expose_through() {
  return [] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<ScriptedIntervention>(parse_json(R"({
          "name": "expose-through",
          "trigger": {"op": ">=", "left": {"var": "time"},
                      "right": {"value": 0}},
          "actions": [{"target": "nodes",
                       "filter": {"healthState": "Exposed"},
                       "operations": [{"set": "healthState",
                                       "value": "Asymptomatic"}]}]})"))};
  };
}

SimulationConfig crowded_seeds_config() {
  SimulationConfig config = base_config(30);
  config.seeds = {SeedSpec{0, 400, 0}};
  return config;
}

// Each person's same-tick transitions, in log order.
using TickSequences =
    std::map<std::pair<Tick, PersonId>,
             std::vector<std::pair<HealthStateId, PersonId>>>;

TickSequences tick_sequences(const SimOutput& out) {
  TickSequences sequences;
  for (const TransitionEvent& e : out.transitions) {
    sequences[{e.tick, e.person}].emplace_back(e.exit_state, e.infector);
  }
  return sequences;
}

class ParallelMergeOrder : public ::testing::TestWithParam<int> {};

// Replaying a log in which a pair swapped would leave the person Exposed.
TEST_P(ParallelMergeOrder, SameTickTransitionsKeepSerialOrder) {
  const SimOutput serial =
      run_dc(crowded_seeds_config(), covid_model(), expose_through());
  const TickSequences expected = tick_sequences(serial);
  std::size_t doubled = 0;
  for (const auto& [key, sequence] : expected) {
    if (sequence.size() > 1) ++doubled;
  }
  ASSERT_GT(doubled, 1000u);
  const SimOutput parallel =
      run_on_ranks(GetParam(), test_region(), crowded_seeds_config(),
                   covid_model(), expose_through());
  EXPECT_EQ(tick_sequences(parallel), expected);
  EXPECT_EQ(parallel.final_states, serial.final_states);
  expect_merged_serial_log(parallel, serial);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelMergeOrder,
                         ::testing::Values(2, 4, 8));

// --- Progression accounting -----------------------------------------------

// Progressions still pending at exit: every person who transitioned at
// least once into a state with an exit for their age group.
std::uint64_t pending_progressions(const SimOutput& out,
                                   const DiseaseModel& model) {
  std::vector<bool> transitioned(out.final_states.size(), false);
  for (const TransitionEvent& e : out.transitions) {
    transitioned[e.person] = true;
  }
  const Population& population = test_region().population;
  std::uint64_t pending = 0;
  for (PersonId p = 0; p < out.final_states.size(); ++p) {
    Rng rng(p);
    HealthStateId next = kNoState;
    Tick dwell = 0;
    if (transitioned[p] &&
        model.sample_progression(out.final_states[p], population.age_group(p),
                                 rng, &next, &dwell)) {
      ++pending;
    }
  }
  return pending;
}

TEST(EventCore, ProgressionAccountingBalances) {
  const DiseaseModel model = covid_model();
  const SimOutput serial =
      run_dc(crowded_seeds_config(), model, expose_through());
  EXPECT_GT(serial.events_fired, 0u);
  EXPECT_GT(serial.events_stale, 0u);
  EXPECT_EQ(serial.events_scheduled, serial.events_fired +
                                         serial.events_stale +
                                         pending_progressions(serial, model));
  // Each progression belongs to one rank, so the ranks' counts add up to
  // the serial ones.
  const SimOutput parallel = run_on_ranks(
      4, test_region(), crowded_seeds_config(), model, expose_through());
  EXPECT_EQ(parallel.events_scheduled, serial.events_scheduled);
  EXPECT_EQ(parallel.events_fired, serial.events_fired);
  EXPECT_EQ(parallel.events_stale, serial.events_stale);
}

// --- Progression calendar -------------------------------------------------

// S, seeded into A; A -> C, 5 ticks for persons under 18 and 6 for the
// rest; B -> C, 3 ticks; C -> D, 100 ticks; D terminal. Nothing is
// infectious.
struct CalendarModel {
  DiseaseModel model;
  HealthStateId a = kNoState, b = kNoState, c = kNoState;
};

CalendarModel calendar_model() {
  const auto edge = [](HealthStateId to, double young_days, double days) {
    ProgressionEdge e;
    e.to = to;
    e.probability.fill(1.0);
    for (int g = 0; g < kAgeGroupCount; ++g) {
      e.dwell[static_cast<std::size_t>(g)] = DwellTime::fixed(
          g < static_cast<int>(AgeGroup::kAdult) ? young_days : days);
    }
    return e;
  };
  CalendarModel m;
  m.model.set_initial_state(m.model.add_state(HealthState{"S", 0.0, 1.0}));
  m.a = m.model.add_state(HealthState{"A"});
  m.b = m.model.add_state(HealthState{"B"});
  m.c = m.model.add_state(HealthState{"C"});
  const HealthStateId d = m.model.add_state(HealthState{"D"});
  m.model.add_progression(m.a, edge(m.c, 5, 6));
  m.model.add_progression(m.b, edge(m.c, 3, 3));
  m.model.add_progression(m.c, edge(d, 100, 100));
  m.model.set_seed_state(m.a);
  return m;
}

// Moves every local person in `from` to `to` at tick `at`, and lets the
// engine skip every other tick.
class ForceAt : public Intervention {
 public:
  ForceAt(Tick at, HealthStateId from, HealthStateId to)
      : at_(at), from_(from), to_(to) {}
  std::string name() const override { return "force-at"; }
  void apply(Simulation& sim) override {
    if (sim.tick() != at_) return;
    for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
      if (sim.health(p) == from_) sim.force_transition(p, to_);
    }
  }
  Tick quiescent_until(const Simulation& sim) const override {
    return sim.tick() < at_ ? at_ : std::numeric_limits<Tick>::max();
  }

 private:
  Tick at_;
  HealthStateId from_, to_;
};

constexpr std::uint32_t kCalendarSeeds = 300;
constexpr Tick kCalendarTicks = 20;

// Every seed enters A at tick 0 and is moved on to B at tick 3, whose
// progression is due at tick 6. For adults A's was due at tick 6 too:
// superseded, then rescheduled onto the same tick, so bucket 6 lists them
// twice. For the young it was due at tick 5, whose bucket then holds
// stale entries only. C's progression is due at tick 106, past the last.
SimOutput calendar_run(int ranks, const CalendarModel& m) {
  SimulationConfig config;
  config.num_ticks = kCalendarTicks;
  config.seeds = {SeedSpec{0, kCalendarSeeds, 0}};
  const InterventionFactory factory = [&m] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<ForceAt>(3, m.a, m.b)};
  };
  return ranks == 1 ? run_dc(config, m.model, factory)
                    : run_on_ranks(ranks, test_region(), config, m.model,
                                   factory);
}

TEST(EventCore, CalendarFiresARescheduledProgressionOnce) {
  const CalendarModel m = calendar_model();
  for (const int ranks : {1, 2, 4, 8}) {
    SCOPED_TRACE(ranks);
    const SimOutput out = calendar_run(ranks, m);
    std::map<PersonId, std::vector<std::pair<Tick, HealthStateId>>> lives;
    for (const TransitionEvent& e : out.transitions) {
      lives[e.person].emplace_back(e.tick, e.exit_state);
    }
    ASSERT_EQ(lives.size(), kCalendarSeeds);
    std::uint32_t young = 0;
    for (const auto& [person, life] : lives) {
      EXPECT_EQ(life, (std::vector<std::pair<Tick, HealthStateId>>{
                          {0, m.a}, {3, m.b}, {6, m.c}}))
          << "person " << person;
      if (test_region().population.age_group(person) < AgeGroup::kAdult) {
        ++young;
      }
    }
    // Both kinds of stale entry occur.
    EXPECT_GT(young, 0u);
    EXPECT_LT(young, kCalendarSeeds);
    EXPECT_EQ(out.events_fired, kCalendarSeeds);
    EXPECT_EQ(out.events_stale, kCalendarSeeds);
    // Ticks 0, 3 and 6 run. Tick 5's bucket holds only stale entries, so
    // the engine skips it like every other quiet tick.
    EXPECT_EQ(out.ticks_executed, 3u);
    EXPECT_EQ(out.ticks_skipped,
              static_cast<std::uint64_t>(kCalendarTicks) - 3);
  }
}

TEST(EventCore, CalendarKeepsProgressionsPastTheLastTickPending) {
  const CalendarModel m = calendar_model();
  for (const int ranks : {1, 2, 4, 8}) {
    SCOPED_TRACE(ranks);
    const SimOutput out = calendar_run(ranks, m);
    // A, B and C each scheduled one progression per seed; C's, due at tick
    // 106, never fires and is neither fired nor stale.
    EXPECT_EQ(out.events_scheduled, 3u * kCalendarSeeds);
    EXPECT_EQ(out.events_scheduled,
              out.events_fired + out.events_stale + kCalendarSeeds);
    EXPECT_EQ(std::count(out.final_states.begin(), out.final_states.end(),
                         m.c),
              static_cast<std::ptrdiff_t>(kCalendarSeeds));
  }
}

// --- Quiescence skipping --------------------------------------------------

// Seeds landing late leave a long dormant prefix: the engine must jump
// over it without touching person state and still match the pin.
TEST(EventCore, SkipsDormantPrefixBeforeLateSeeds) {
  SimulationConfig config = base_config(60);
  config.seeds = {SeedSpec{0, 10, 30}};  // county 0, 10 seeds, tick 30
  const SimOutput out = run_dc(config, covid_model());
  expect_pinned(out, kDcLateSeeds, true);
  // Ticks 1..29 are globally dormant (tick 0 always executes); the dormant
  // gap must be skipped, not scanned.
  EXPECT_GE(out.ticks_skipped, 29u);
  EXPECT_EQ(out.ticks_executed + out.ticks_skipped, 60u);
  ASSERT_EQ(out.seconds_per_tick.size(), 60u);
  ASSERT_EQ(out.new_infections_per_tick.size(), 60u);
  ASSERT_EQ(out.memory_bytes_per_tick.size(), 60u);
}

// With zero transmissibility the seeds progress to a terminal state and the
// world goes quiet; the tail of the run must be skipped.
TEST(EventCore, SkipsQuiescentTailAfterEpidemicDies) {
  const SimOutput out = run_dc(base_config(200), model_with(0.0));
  EXPECT_EQ(out.total_infections, 0u);
  EXPECT_FALSE(out.transitions.empty());  // seeds still progress
  EXPECT_GT(out.ticks_skipped, 100u);
  EXPECT_EQ(out.ticks_executed + out.ticks_skipped, 200u);
}

// Scheduled-action intervention that knows its own quiescent range. Records
// the ticks it actually ran at so the test can pin the skip pattern.
class ScheduledProbe : public Intervention {
 public:
  ScheduledProbe(Tick action_tick, std::vector<Tick>* applied_at)
      : action_tick_(action_tick), applied_at_(applied_at) {}
  std::string name() const override { return "probe"; }
  void apply(Simulation& sim) override { applied_at_->push_back(sim.tick()); }
  Tick quiescent_until(const Simulation& sim) const override {
    return sim.tick() < action_tick_ ? action_tick_
                                     : std::numeric_limits<Tick>::max();
  }

 private:
  Tick action_tick_;
  std::vector<Tick>* applied_at_;
};

TEST(EventCore, QuiescentUntilHintsGateInterventionWakeups) {
  // No seeds, no progressions: the only activity is the probe's scheduled
  // action at tick 20. The run must execute exactly tick 0 (first tick
  // always runs) and tick 20, skipping the other 28.
  std::vector<Tick> applied_at;
  SimulationConfig config = base_config(30);
  config.seeds.clear();
  auto factory = [&applied_at] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<ScheduledProbe>(20, &applied_at)};
  };
  const SimOutput out = run_dc(config, covid_model(), factory);
  EXPECT_EQ(applied_at, (std::vector<Tick>{0, 20}));
  EXPECT_EQ(out.ticks_executed, 2u);
  EXPECT_EQ(out.ticks_skipped, 28u);
}

TEST(EventCore, DefaultInterventionHintBlocksSkipping) {
  // An intervention without a quiescent_until override may act every tick,
  // so its presence must pin the run to full per-tick execution.
  SimulationConfig config = base_config(30);
  config.seeds.clear();
  auto factory = [] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<VoluntaryHomeIsolation>(
            VoluntaryHomeIsolation::Config{0.7, 14, 0})};
  };
  const SimOutput out = run_dc(config, covid_model(), factory);
  EXPECT_EQ(out.ticks_executed, 30u);
  EXPECT_EQ(out.ticks_skipped, 0u);
}

// --- Communication per tick ------------------------------------------------

// An executed parallel tick issues two collectives: the halo alltoallv and
// the end-of-tick allgatherv. Beside them a replicate issues the
// construction-time subscriber handshake (one alltoallv) and one
// allgatherv per seeding spec; a skipped tick issues none.
TEST(EventCore, ParallelTickIssuesTheHaloAndTheEndOfTickGatherOnly) {
  constexpr std::uint64_t kRanks = 4;
  SimulationConfig config = base_config(60);
  config.seeds = {SeedSpec{0, 10, 30}, SeedSpec{0, 5, 40}};
  obs::MetricsRegistry metrics;
  mpilite::ObsHooks hooks;
  hooks.metrics = &metrics;
  hooks.deterministic_timing = true;
  const SimOutput out = run_simulation_parallel(
      test_region().network, test_region().population, covid_model(), config,
      partition_network(test_region().network, kRanks),
      static_cast<int>(kRanks), nullptr, hooks);
  ASSERT_GT(out.ticks_skipped, 0u);
  EXPECT_EQ(metrics.histogram_count("mpilite.alltoallv_s"),
            kRanks * (out.ticks_executed + 1));
  EXPECT_EQ(metrics.histogram_count("mpilite.allgatherv_s"),
            kRanks * (out.ticks_executed + config.seeds.size()));
  EXPECT_EQ(metrics.histogram_count("mpilite.allreduce_s"), 0u);
}

// Isolation, like every other per-person setter, acts on the rank's own
// persons: a remote person is an error naming them.
TEST(EventCore, IsolateIsLocalOnly) {
  const Partitioning parts = partition_network(test_region().network, 2);
  const PersonId remote = parts.part(1).node_begin;
  std::string what;  // rank 0 runs in this process under both backends
  mpilite::Runtime::run(2, [&](mpilite::Comm& comm) {
    Simulation sim(test_region().network, test_region().population,
                   covid_model(), base_config(), &comm, &parts);
    if (comm.rank() != 0) return;
    try {
      sim.isolate(remote, 5);
    } catch (const Error& e) {
      what = e.what();
    }
  });
  EXPECT_NE(what.find("person " + std::to_string(remote)), std::string::npos)
      << what;
}

}  // namespace
}  // namespace epi
