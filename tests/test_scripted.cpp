#include "epihiper/scripted.hpp"

#include <gtest/gtest.h>

#include "epihiper/interventions.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

const SyntheticRegion& test_region() {
  static const SyntheticRegion region = [] {
    SynthPopConfig config;
    config.region = "DC";
    config.scale = 1.0 / 300.0;
    config.seed = 99;
    return generate_region(config);
  }();
  return region;
}

SimulationConfig base_config(Tick ticks = 60) {
  SimulationConfig config;
  config.num_ticks = ticks;
  config.seed = 4321;
  config.seeds = {SeedSpec{0, 10, 0}};
  return config;
}

std::shared_ptr<ScriptedIntervention> scripted(const std::string& text) {
  return std::make_shared<ScriptedIntervention>(parse_json(text));
}

TEST(Scripted, ParsesAndNames) {
  const auto intervention = scripted(R"({
    "name": "demo",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 5}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "x", "value": 1}]}]
  })");
  EXPECT_EQ(intervention->name(), "demo");
  EXPECT_EQ(intervention->fired_count(), 0u);
}

TEST(Scripted, MalformedScriptsRejected) {
  EXPECT_THROW(scripted(R"({"actions": []})"), Error);  // no trigger
  EXPECT_THROW(scripted(R"({"trigger": {"op": "nope", "left": {"value": 1},
      "right": {"value": 1}}})"), Error);  // no actions
  EXPECT_THROW(scripted(R"({
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "martians", "operations": []}]})"), Error);
  EXPECT_THROW(scripted(R"({
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "operations": [{"set": "active", "value": true}]}]})"),
               Error);  // edge op on node target
  EXPECT_THROW(scripted(R"({
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "sampling": {"type": "absolute", "value": 5},
                 "operations": [{"isolate": 14}]}]})"),
               Error);  // unsupported sampling type
}

TEST(Scripted, TimeTriggerFiresOnceWhenOnce) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "once": true,
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 10}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "fired", "add": 1}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(30));
  sim.add_intervention(intervention);
  sim.run();
  EXPECT_EQ(intervention->fired_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.variable("fired"), 1.0);
}

TEST(Scripted, RecurringTriggerFiresEveryTick) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 5}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "fired", "add": 1}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(20));
  sim.add_intervention(intervention);
  sim.run();
  EXPECT_EQ(intervention->fired_count(), 15u);  // ticks 5..19
}

TEST(Scripted, StateCountTriggerReactsToEpidemic) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "once": true, "name": "surge",
    "trigger": {"op": ">", "left": {"var": "stateCount", "state": "Recovered"},
                "right": {"value": 20}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "surge_seen", "value": 1}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(80));
  sim.add_intervention(intervention);
  sim.run();
  EXPECT_EQ(intervention->fired_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.variable("surge_seen"), 1.0);
}

TEST(Scripted, BooleanOperatorsCompose) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "trigger": {"op": "and", "args": [
        {"op": ">=", "left": {"var": "time"}, "right": {"value": 5}},
        {"op": "not", "arg":
            {"op": ">", "left": {"var": "time"}, "right": {"value": 7}}}]},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "window", "add": 1}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(20));
  sim.add_intervention(intervention);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.variable("window"), 3.0);  // ticks 5, 6, 7
}

TEST(Scripted, NodeFilterByHealthStateIsolates) {
  CovidParams params;
  params.transmissibility = 0.3;
  const DiseaseModel model = covid_model(params);
  auto intervention = scripted(R"({
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "filter": {"healthState": "Symptomatic"},
                 "operations": [{"isolate": 14},
                                {"setTrait": "quarantined", "value": 1}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(50));
  sim.add_intervention(intervention);
  sim.run();
  // Every currently symptomatic person must be isolated and flagged.
  const HealthStateId symptomatic = model.state_id(covid_states::kSymptomatic);
  std::size_t symptomatic_seen = 0;
  for (PersonId p = 0; p < test_region().population.person_count(); ++p) {
    if (sim.health(p) == symptomatic) {
      ++symptomatic_seen;
      EXPECT_TRUE(sim.is_isolated(p));
      EXPECT_EQ(sim.node_trait("quarantined", p), 1);
    }
  }
  EXPECT_GT(symptomatic_seen, 0u);
}

TEST(Scripted, ScriptedVhiMatchesReduction) {
  // A scripted symptomatic-isolation policy suppresses like the built-in.
  CovidParams params;
  params.transmissibility = 0.25;
  const DiseaseModel model = covid_model(params);
  const SimOutput baseline = run_simulation(
      test_region().network, test_region().population, model, base_config(70));
  const SimOutput with_script = run_simulation(
      test_region().network, test_region().population, model, base_config(70),
      [] {
        return std::vector<std::shared_ptr<Intervention>>{scripted(R"({
          "trigger": {"op": ">=", "left": {"var": "time"},
                      "right": {"value": 0}},
          "actions": [{"target": "nodes",
                       "filter": {"healthState": "Symptomatic"},
                       "sampling": {"type": "fraction", "value": 0.9},
                       "operations": [{"isolate": 14}]}]})")};
      });
  EXPECT_LT(with_script.total_infections, baseline.total_infections);
}

TEST(Scripted, EdgeOperationsCloseContext) {
  CovidParams params;
  params.transmissibility = 0.25;
  const DiseaseModel model = covid_model(params);
  auto intervention = scripted(R"({
    "once": true,
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "edges",
                 "filter": {"context": "work"},
                 "operations": [{"set": "active", "value": false}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(1));
  sim.add_intervention(intervention);
  sim.run();
  // All work-context edges are now inactive; home edges untouched.
  const ContactNetwork& net = test_region().network;
  for (EdgeIndex e = 0; e < net.edge_count(); ++e) {
    const Contact& c = net.contact(e);
    const bool work =
        c.target_activity == static_cast<std::uint8_t>(ActivityType::kWork) ||
        c.source_activity == static_cast<std::uint8_t>(ActivityType::kWork);
    if (work) {
      EXPECT_FALSE(sim.edge_active(e));
    }
    const bool home =
        c.target_activity == static_cast<std::uint8_t>(ActivityType::kHome) &&
        c.source_activity == static_cast<std::uint8_t>(ActivityType::kHome);
    if (home) {
      EXPECT_TRUE(sim.edge_active(e));
    }
  }
}

TEST(Scripted, EdgeSamplingAgreesAcrossDirections) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "once": true,
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "edges",
                 "sampling": {"type": "fraction", "value": 0.5},
                 "operations": [{"set": "active", "value": false}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(1));
  sim.add_intervention(intervention);
  sim.run();
  // Both directions of every undirected contact got the same draw.
  const ContactNetwork& net = test_region().network;
  std::map<std::pair<PersonId, PersonId>, std::vector<bool>> by_pair;
  for (PersonId v = 0; v < net.node_count(); ++v) {
    for (EdgeIndex e = net.in_begin(v); e < net.in_end(v); ++e) {
      const PersonId u = net.contact(e).source;
      by_pair[{std::min(u, v), std::max(u, v)}].push_back(sim.edge_active(e));
    }
  }
  std::size_t inactive_pairs = 0;
  for (const auto& [pair, states] : by_pair) {
    for (bool state : states) {
      EXPECT_EQ(state, states.front());
    }
    inactive_pairs += states.front() ? 0 : 1;
  }
  // Roughly half the contacts sampled out.
  const double fraction =
      static_cast<double>(inactive_pairs) / static_cast<double>(by_pair.size());
  EXPECT_NEAR(fraction, 0.5, 0.07);
}

TEST(Scripted, NonsampledOperationsApplyToRemainder) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "once": true,
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "sampling": {"type": "fraction", "value": 0.3},
                 "operations": [{"setTrait": "grp", "value": 1}],
                 "nonsampledOperations": [{"setTrait": "grp", "value": 2}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(1));
  sim.add_intervention(intervention);
  sim.run();
  std::size_t sampled = 0, rest = 0;
  for (PersonId p = 0; p < test_region().population.person_count(); ++p) {
    const auto value = sim.node_trait("grp", p);
    EXPECT_TRUE(value == 1 || value == 2) << "person " << p;
    (value == 1 ? sampled : rest) += 1;
  }
  EXPECT_NEAR(static_cast<double>(sampled) / (sampled + rest), 0.3, 0.05);
}

TEST(Scripted, DelayedBlockExecutesLater) {
  const DiseaseModel model = covid_model();
  auto intervention = scripted(R"({
    "once": true,
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 3}},
    "actions": [{"target": "once", "delay": 5,
                 "operations": [{"setVariable": "done_at", "value": 1}]}]
  })");
  // Record when the variable flips via a second (probe) script.
  auto probe = scripted(R"({
    "trigger": {"op": "==", "left": {"var": "variable", "name": "done_at"},
                "right": {"value": 0}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "zero_ticks", "add": 1}]}]
  })");
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(20));
  sim.add_intervention(intervention);
  sim.add_intervention(probe);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.variable("done_at"), 1.0);
  // done_at flips at tick 8 (trigger at 3 + delay 5); the probe counts
  // ticks 0..7 = 8 zero ticks.
  EXPECT_DOUBLE_EQ(sim.variable("zero_ticks"), 8.0);
}

TEST(Scripted, WeightScalingReducesTransmission) {
  CovidParams params;
  params.transmissibility = 0.25;
  const DiseaseModel model = covid_model(params);
  auto factory = [] {
    return std::vector<std::shared_ptr<Intervention>>{scripted(R"({
      "once": true, "name": "masking",
      "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
      "actions": [{"target": "edges",
                   "operations": [{"scale": "weight", "factor": 0.2}]}]})")};
  };
  const SimOutput baseline = run_simulation(
      test_region().network, test_region().population, model, base_config(70));
  const SimOutput masked =
      run_simulation(test_region().network, test_region().population, model,
                     base_config(70), factory);
  EXPECT_LT(masked.total_infections, baseline.total_infections / 2);
}

TEST(Scripted, ForceTransitionViaHealthStateSet) {
  const DiseaseModel model = covid_model();
  // Initialization-style: expose all persons of age group 4 at tick 0.
  auto intervention = scripted(R"({
    "once": true,
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "filter": {"ageGroup": 4, "healthState": "Susceptible"},
                 "operations": [{"set": "healthState", "value": "Exposed"}]}]
  })");
  SimulationConfig config = base_config(1);
  config.seeds.clear();
  Simulation sim(test_region().network, test_region().population, model,
                 config);
  sim.add_intervention(intervention);
  const SimOutput out = sim.run();
  std::size_t seniors = 0;
  for (const auto& event : out.transitions) {
    EXPECT_EQ(event.exit_state, model.state_id(covid_states::kExposed));
    EXPECT_EQ(test_region().population.age_group(event.person),
              AgeGroup::kSenior);
    ++seniors;
  }
  EXPECT_GT(seniors, 0u);
}

TEST(Scripted, MakeInitializationRunsOnceAtGivenTick) {
  const DiseaseModel model = covid_model();
  const Json actions = parse_json(R"([
    {"target": "once", "operations": [{"setVariable": "init", "add": 1}]}
  ])");
  auto init = make_initialization(actions, 4, "boot");
  EXPECT_EQ(init->name(), "boot");
  SimulationConfig config = base_config(10);
  config.seeds.clear();
  Simulation sim(test_region().network, test_region().population, model,
                 config);
  sim.add_intervention(init);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.variable("init"), 1.0);
}

TEST(Scripted, FactoryBuildsScriptedType) {
  const auto intervention = intervention_from_json(parse_json(R"({
    "type": "scripted", "name": "via-factory",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "v", "value": 1}]}]
  })"));
  EXPECT_EQ(intervention->name(), "via-factory");
}

/// The ConfigError message a scripted spec throws, or "" if it parses.
std::string scripted_error(const std::string& text) {
  try {
    intervention_from_json(parse_json(text));
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(Scripted, RejectsTypoInFilterKey) {
  // Misspelling "filter" left the action unfiltered, so it isolated every
  // node; a misspelled key inside a filter dropped that condition.
  EXPECT_NE(scripted_error(R"({"type": "scripted",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes", "filtr": {"healthState": "Symptomatic"},
                 "operations": [{"isolate": 14}]}]})")
                .find("'filtr'"),
            std::string::npos);
  EXPECT_NE(scripted_error(R"({"type": "scripted",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes", "filter": {"healthstate": "Symptomatic"},
                 "operations": [{"isolate": 14}]}]})")
                .find("'healthstate'"),
            std::string::npos);
  EXPECT_NE(scripted_error(R"({"type": "scripted",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "edges", "filter": {"contxt": "work"},
                 "operations": [{"set": "active", "value": false}]}]})")
                .find("'contxt'"),
            std::string::npos);
}

TEST(Scripted, RejectsTypoInTopLevelKey) {
  const std::string message = scripted_error(R"({"type": "scripted",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "trigers": {"op": ">=", "left": {"var": "time"}, "right": {"value": 9}},
    "actions": [{"target": "once",
                 "operations": [{"setVariable": "x", "value": 1}]}]})");
  EXPECT_NE(message.find("'trigers'"), std::string::npos) << message;
}

TEST(Scripted, RejectsTypoInOperationKey) {
  const std::string message = scripted_error(R"({"type": "scripted",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "operations": [{"scale": "infectivity", "factr": 0.5}]}]})");
  EXPECT_NE(message.find("'factr'"), std::string::npos) << message;
  EXPECT_NE(scripted_error(R"({"type": "scripted",
    "trigger": {"op": ">=", "left": {"var": "time"}, "right": {"value": 0}},
    "actions": [{"target": "nodes",
                 "sampling": {"type": "fraction", "valeu": 0.5},
                 "operations": [{"isolate": 14}]}]})")
                .find("'valeu'"),
            std::string::npos);
}

// Scripted interventions must preserve serial/parallel equivalence.
class ScriptedParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ScriptedParallelEquivalence, MatchesSerial) {
  const int ranks = GetParam();
  CovidParams params;
  params.transmissibility = 0.25;
  const DiseaseModel model = covid_model(params);
  const SimulationConfig config = base_config(40);
  auto factory = [] {
    return std::vector<std::shared_ptr<Intervention>>{scripted(R"({
      "name": "combo",
      "trigger": {"op": ">", "left": {"var": "stateCount",
                  "state": "Symptomatic"}, "right": {"value": 3}},
      "actions": [
        {"target": "nodes", "filter": {"healthState": "Symptomatic"},
         "sampling": {"type": "fraction", "value": 0.7},
         "operations": [{"isolate": 10}]},
        {"target": "edges", "filter": {"context": "shopping"}, "delay": 2,
         "operations": [{"set": "active", "value": false}]},
        {"target": "once",
         "operations": [{"setVariable": "firings", "add": 1}]}]})")};
  };
  const SimOutput serial =
      run_simulation(test_region().network, test_region().population, model,
                     config, factory);
  const Partitioning parts =
      partition_network(test_region().network, static_cast<std::size_t>(ranks));
  const SimOutput parallel = run_simulation_parallel(
      test_region().network, test_region().population, model, config, parts,
      ranks, factory);
  EXPECT_EQ(parallel.total_infections, serial.total_infections);
  EXPECT_EQ(parallel.final_states, serial.final_states);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ScriptedParallelEquivalence,
                         ::testing::Values(2, 4));

}  // namespace
}  // namespace epi
