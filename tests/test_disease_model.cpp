#include "epihiper/disease_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace epi {
namespace {

// The progression draw as it was made when every call built its weights
// in a fresh std::vector; a dwell time's parameters are read back through
// to_json().
Tick vector_path_dwell(const DwellTime& dwell, Rng& rng) {
  const Json j = dwell.to_json();
  double days = 1.0;
  switch (dwell.kind()) {
    case DwellTime::Kind::kFixed: days = j.at("days").as_double(); break;
    case DwellTime::Kind::kNormal:
      days = rng.truncated_normal(j.at("mean").as_double(),
                                  j.at("stddev").as_double(), 0.5, 60.0);
      break;
    case DwellTime::Kind::kDiscrete: {
      std::vector<std::pair<double, double>> outcomes;
      for (const Json& outcome : j.at("outcomes").as_array()) {
        outcomes.emplace_back(outcome.as_array()[0].as_double(),
                              outcome.as_array()[1].as_double());
      }
      std::vector<double> weights;
      for (const auto& [d, p] : outcomes) weights.push_back(p);
      days = outcomes[rng.discrete(weights)].first;
      break;
    }
  }
  return std::max<Tick>(1, static_cast<Tick>(std::llround(days)));
}

bool vector_path_progression(const DiseaseModel& model, HealthStateId from,
                             AgeGroup group, Rng& rng, HealthStateId* next,
                             Tick* dwell_ticks) {
  const auto& edges = model.progressions_from(from);
  if (edges.empty()) return false;
  const auto g = static_cast<std::size_t>(group);
  std::vector<double> weights;
  double total = 0.0;
  for (const auto& edge : edges) {
    weights.push_back(edge.probability[g]);
    total += edge.probability[g];
  }
  if (total <= 0.0) return false;
  const std::size_t pick = rng.discrete(weights);
  *next = edges[pick].to;
  *dwell_ticks = vector_path_dwell(edges[pick].dwell[g], rng);
  return true;
}

TEST(DwellTime, FixedSamplesConstant) {
  Rng rng(51);
  const DwellTime d = DwellTime::fixed(3.0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(d.sample(rng), 3);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(DwellTime, MinimumOneTick) {
  Rng rng(52);
  const DwellTime zero = DwellTime::fixed(0.0);
  EXPECT_EQ(zero.sample(rng), 1);
  const DwellTime tiny = DwellTime::normal(0.1, 0.01);
  for (int i = 0; i < 100; ++i) EXPECT_GE(tiny.sample(rng), 1);
}

TEST(DwellTime, NormalCentersOnMean) {
  Rng rng(53);
  const DwellTime d = DwellTime::normal(6.0, 1.0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(DwellTime, DiscreteMatchesWeights) {
  Rng rng(54);
  const DwellTime d = DwellTime::discrete({{2.0, 0.5}, {8.0, 0.5}});
  int twos = 0, eights = 0;
  for (int i = 0; i < 10000; ++i) {
    const Tick t = d.sample(rng);
    if (t == 2) ++twos;
    else if (t == 8) ++eights;
    else FAIL() << "unexpected dwell " << t;
  }
  EXPECT_NEAR(twos, 5000, 300);
  EXPECT_NEAR(eights, 5000, 300);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(DwellTime, DiscreteRequiresNormalizedProbs) {
  EXPECT_THROW(DwellTime::discrete({{1.0, 0.4}, {2.0, 0.4}}), Error);
  EXPECT_THROW(DwellTime::discrete({}), Error);
}

TEST(DwellTime, JsonRoundTripAllKinds) {
  Rng rng(55);
  for (const DwellTime& original :
       {DwellTime::fixed(4.0), DwellTime::normal(5.0, 1.5),
        DwellTime::discrete({{1.0, 0.3}, {2.0, 0.7}})}) {
    const DwellTime restored = DwellTime::from_json(original.to_json());
    EXPECT_EQ(restored.kind(), original.kind());
    EXPECT_DOUBLE_EQ(restored.mean(), original.mean());
  }
}

TEST(DiseaseModel, DuplicateStateNamesRejected) {
  DiseaseModel m;
  HealthState s;
  s.name = "X";
  m.add_state(s);
  EXPECT_THROW(m.add_state(s), Error);
}

TEST(DiseaseModel, UnknownStateLookupThrows) {
  const DiseaseModel m = covid_model();
  EXPECT_THROW(m.state_id("NoSuchState"), ConfigError);
}

TEST(DiseaseModel, ValidateCatchesBadProbabilitySums) {
  DiseaseModel m;
  HealthState s;
  s.name = "S";
  s.susceptibility = 1.0;
  const HealthStateId sid = m.add_state(s);
  HealthState e;
  e.name = "E";
  const HealthStateId eid = m.add_state(e);
  ProgressionEdge edge;
  edge.to = eid;
  edge.probability = {0.5, 0.5, 0.5, 0.5, 0.5};  // sums to 0.5, not 1 or 0
  edge.dwell = {DwellTime::fixed(1), DwellTime::fixed(1), DwellTime::fixed(1),
                DwellTime::fixed(1), DwellTime::fixed(1)};
  m.add_progression(eid, edge);
  m.set_initial_state(sid);
  m.set_seed_state(eid);
  EXPECT_THROW(m.validate(), Error);
}

TEST(CovidModel, ValidatesAndHasAllStates) {
  const DiseaseModel m = covid_model();
  EXPECT_EQ(m.state_count(), 15u);
  using namespace covid_states;
  for (const char* name :
       {kSusceptible, kExposed, kPresymptomatic, kAsymptomatic, kSymptomatic,
        kAttended, kAttendedHosp, kAttendedDeath, kHospitalized,
        kHospitalizedDeath, kVentilated, kVentilatedDeath, kRecovered,
        kDeceased, kRxFailure}) {
    EXPECT_NO_THROW(m.state_id(name)) << name;
  }
  // 15 states x 5 age groups = 75 stratified states, the regime of the
  // paper's "90 health states" summary dimension.
  EXPECT_EQ(m.state_count() * kAgeGroupCount, 75u);
}

TEST(CovidModel, TableIVAttributes) {
  const DiseaseModel m = covid_model();
  using namespace covid_states;
  EXPECT_DOUBLE_EQ(m.transmissibility(), 0.18);
  EXPECT_DOUBLE_EQ(m.state(m.state_id(kPresymptomatic)).infectivity, 0.8);
  EXPECT_DOUBLE_EQ(m.state(m.state_id(kSymptomatic)).infectivity, 1.0);
  EXPECT_DOUBLE_EQ(m.state(m.state_id(kAsymptomatic)).infectivity, 1.0);
  EXPECT_DOUBLE_EQ(m.state(m.state_id(kSusceptible)).susceptibility, 1.0);
  EXPECT_DOUBLE_EQ(m.state(m.state_id(kRxFailure)).susceptibility, 1.0);
  EXPECT_FALSE(m.state(m.state_id(kRecovered)).susceptible());
  EXPECT_FALSE(m.state(m.state_id(kDeceased)).infectious());
}

TEST(CovidModel, TableIIISymptomaticBranchesSumToOne) {
  const DiseaseModel m = covid_model();
  const auto& edges = m.progressions_from(m.state_id(covid_states::kSymptomatic));
  ASSERT_EQ(edges.size(), 3u);
  for (int g = 0; g < kAgeGroupCount; ++g) {
    double total = 0.0;
    for (const auto& edge : edges) total += edge.probability[g];
    EXPECT_NEAR(total, 1.0, 1e-9) << "age group " << g;
  }
}

TEST(CovidModel, SeverityIncreasesWithAge) {
  const DiseaseModel m = covid_model();
  const auto& edges = m.progressions_from(m.state_id(covid_states::kSymptomatic));
  // Find the hospitalization- and death-path branches (Table III rows):
  const HealthStateId att_h = m.state_id(covid_states::kAttendedHosp);
  const HealthStateId att_d = m.state_id(covid_states::kAttendedDeath);
  for (const auto& edge : edges) {
    if (edge.to == att_h) {
      EXPECT_DOUBLE_EQ(edge.probability[1], 0.01);    // 5-17
      EXPECT_DOUBLE_EQ(edge.probability[4], 0.195);   // 65+
      EXPECT_LT(edge.probability[2], edge.probability[4]);
    }
    if (edge.to == att_d) {
      EXPECT_DOUBLE_EQ(edge.probability[0], 0.0006);
      EXPECT_DOUBLE_EQ(edge.probability[4], 0.017);
    }
  }
}

TEST(CovidModel, SymptomaticFractionParameterized) {
  CovidParams params;
  params.symptomatic_fraction = 0.9;
  const DiseaseModel m = covid_model(params);
  const auto& edges = m.progressions_from(m.state_id(covid_states::kExposed));
  double presympt_prob = 0.0;
  for (const auto& edge : edges) {
    if (edge.to == m.state_id(covid_states::kPresymptomatic)) {
      presympt_prob = edge.probability[2];
    }
  }
  EXPECT_DOUBLE_EQ(presympt_prob, 0.9);
}

TEST(CovidModel, TerminalStatesHaveNoProgressions) {
  const DiseaseModel m = covid_model();
  EXPECT_TRUE(m.progressions_from(m.state_id(covid_states::kRecovered)).empty());
  EXPECT_TRUE(m.progressions_from(m.state_id(covid_states::kDeceased)).empty());
  HealthStateId next;
  Tick dwell;
  Rng rng(56);
  EXPECT_FALSE(m.sample_progression(m.state_id(covid_states::kDeceased),
                                    AgeGroup::kAdult, rng, &next, &dwell));
}

TEST(CovidModel, TransmissionsCoverBothSusceptibleStates) {
  const DiseaseModel m = covid_model();
  // S and RxFailure x {P, Y, A} = 6 transmissions.
  EXPECT_EQ(m.transmissions().size(), 6u);
  const auto& from_s =
      m.transmissions_from(m.state_id(covid_states::kSusceptible));
  EXPECT_EQ(from_s.size(), 3u);
  for (const auto& t : from_s) {
    EXPECT_EQ(t.to, m.state_id(covid_states::kExposed));
  }
}

TEST(CovidModel, JsonRoundTripPreservesStructure) {
  const DiseaseModel original = covid_model();
  const DiseaseModel restored = DiseaseModel::from_json(original.to_json());
  EXPECT_EQ(restored.state_count(), original.state_count());
  EXPECT_EQ(restored.transmissions().size(), original.transmissions().size());
  EXPECT_DOUBLE_EQ(restored.transmissibility(), original.transmissibility());
  EXPECT_EQ(restored.state(restored.initial_state()).name,
            original.state(original.initial_state()).name);
  // Spot-check an age-stratified branch survives the round trip.
  const auto& edges =
      restored.progressions_from(restored.state_id(covid_states::kSymptomatic));
  double total = 0.0;
  for (const auto& edge : edges) total += edge.probability[4];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CovidModel, ProgressionSamplingFollowsProbabilities) {
  const DiseaseModel m = covid_model();
  Rng rng(57);
  const HealthStateId exposed = m.state_id(covid_states::kExposed);
  const HealthStateId presympt = m.state_id(covid_states::kPresymptomatic);
  int to_presympt = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    HealthStateId next;
    Tick dwell;
    ASSERT_TRUE(
        m.sample_progression(exposed, AgeGroup::kAdult, rng, &next, &dwell));
    EXPECT_GE(dwell, 1);
    if (next == presympt) ++to_presympt;
  }
  EXPECT_NEAR(static_cast<double>(to_presympt) / n, 0.65, 0.01);
}

TEST(CovidModel, ProgressionDrawsReplayTheVectorWeightPath) {
  const DiseaseModel m = covid_model();
  int sampled = 0;
  int expected = 0;
  for (HealthStateId s = 0; s < m.state_count(); ++s) {
    if (!m.progressions_from(s).empty()) expected += 300 * kAgeGroupCount;
    for (int g = 0; g < kAgeGroupCount; ++g) {
      const auto group = static_cast<AgeGroup>(g);
      for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng = Rng(seed).derive({s, static_cast<std::uint64_t>(g)});
        Rng reference = rng;
        HealthStateId next = kNoState, reference_next = kNoState;
        Tick dwell = -1, reference_dwell = -1;
        const bool moved = m.sample_progression(s, group, rng, &next, &dwell);
        ASSERT_EQ(moved, vector_path_progression(m, s, group, reference,
                                                 &reference_next,
                                                 &reference_dwell))
            << m.state(s).name << " group " << g << " seed " << seed;
        EXPECT_EQ(next, reference_next);
        EXPECT_EQ(dwell, reference_dwell);
        // Both consumed the same number of draws.
        EXPECT_EQ(rng.next(), reference.next());
        sampled += moved ? 1 : 0;
      }
    }
  }
  // Every state with progressions drew in every age group: none of the
  // model's exit probabilities sum to 0 for a group.
  EXPECT_EQ(sampled, expected);
  EXPECT_EQ(expected, 11 * 300 * kAgeGroupCount);
}

TEST(CovidModel, MeanIncubationAroundSixDays) {
  // E -> P (4 days) -> Y (2 days): symptomatic incubation ~6 days,
  // matching the CDC planning-scenario reconstruction.
  const DiseaseModel m = covid_model();
  Rng rng(58);
  const HealthStateId exposed = m.state_id(covid_states::kExposed);
  const HealthStateId presympt = m.state_id(covid_states::kPresymptomatic);
  double incubation_sum = 0.0;
  int count = 0;
  for (int i = 0; i < 5000; ++i) {
    HealthStateId next;
    Tick dwell1;
    m.sample_progression(exposed, AgeGroup::kAdult, rng, &next, &dwell1);
    if (next != presympt) continue;
    HealthStateId next2;
    Tick dwell2;
    m.sample_progression(presympt, AgeGroup::kAdult, rng, &next2, &dwell2);
    incubation_sum += dwell1 + dwell2;
    ++count;
  }
  EXPECT_NEAR(incubation_sum / count, 6.0, 0.2);
}

}  // namespace
}  // namespace epi
