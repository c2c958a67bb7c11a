#include "epihiper/disease_model.hpp"

#include <cmath>
#include <span>

#include "util/error.hpp"

namespace epi {

DwellTime DwellTime::fixed(double days) {
  EPI_REQUIRE(days >= 0.0, "dwell time must be >= 0");
  DwellTime d;
  d.kind_ = Kind::kFixed;
  d.fixed_days_ = days;
  return d;
}

DwellTime DwellTime::normal(double mean, double stddev) {
  EPI_REQUIRE(mean >= 0.0 && stddev >= 0.0, "invalid normal dwell time");
  DwellTime d;
  d.kind_ = Kind::kNormal;
  d.mean_days_ = mean;
  d.stddev_days_ = stddev;
  return d;
}

DwellTime DwellTime::discrete(std::vector<std::pair<double, double>> outcomes) {
  EPI_REQUIRE(!outcomes.empty(), "discrete dwell time needs outcomes");
  double total = 0.0;
  for (const auto& [days, prob] : outcomes) {
    EPI_REQUIRE(days >= 0.0 && prob >= 0.0, "invalid discrete dwell outcome");
    total += prob;
  }
  EPI_REQUIRE(std::abs(total - 1.0) < 1e-6,
              "discrete dwell probabilities sum to " << total << ", not 1");
  DwellTime d;
  d.kind_ = Kind::kDiscrete;
  for (const auto& [days, prob] : outcomes) {
    d.outcome_days_.push_back(days);
    d.outcome_weights_.push_back(prob);
  }
  return d;
}

Tick DwellTime::sample(Rng& rng) const {
  double days = 1.0;
  switch (kind_) {
    case Kind::kFixed: days = fixed_days_; break;
    case Kind::kNormal:
      // Truncated at 0.5 so rounding can never yield a non-positive dwell.
      days = rng.truncated_normal(mean_days_, stddev_days_, 0.5, 60.0);
      break;
    case Kind::kDiscrete:
      days = outcome_days_[rng.discrete(outcome_weights_)];
      break;
  }
  return std::max<Tick>(1, static_cast<Tick>(std::llround(days)));
}

double DwellTime::mean() const {
  switch (kind_) {
    case Kind::kFixed: return fixed_days_;
    case Kind::kNormal: return mean_days_;
    case Kind::kDiscrete: {
      double m = 0.0;
      for (std::size_t i = 0; i < outcome_days_.size(); ++i) {
        m += outcome_days_[i] * outcome_weights_[i];
      }
      return m;
    }
  }
  return 0.0;
}

Json DwellTime::to_json() const {
  JsonObject o;
  switch (kind_) {
    case Kind::kFixed:
      o["kind"] = "fixed";
      o["days"] = fixed_days_;
      break;
    case Kind::kNormal:
      o["kind"] = "normal";
      o["mean"] = mean_days_;
      o["stddev"] = stddev_days_;
      break;
    case Kind::kDiscrete: {
      o["kind"] = "discrete";
      JsonArray arr;
      for (std::size_t i = 0; i < outcome_days_.size(); ++i) {
        arr.push_back(
            Json(JsonArray{Json(outcome_days_[i]), Json(outcome_weights_[i])}));
      }
      o["outcomes"] = Json(std::move(arr));
      break;
    }
  }
  return Json(std::move(o));
}

DwellTime DwellTime::from_json(const Json& j) {
  const std::string kind = j.at("kind").as_string();
  if (kind == "fixed") return fixed(j.at("days").as_double());
  if (kind == "normal") {
    return normal(j.at("mean").as_double(), j.at("stddev").as_double());
  }
  if (kind == "discrete") {
    std::vector<std::pair<double, double>> outcomes;
    for (const Json& pair : j.at("outcomes").as_array()) {
      const auto& arr = pair.as_array();
      EPI_REQUIRE(arr.size() == 2, "dwell outcome must be [days, prob]");
      outcomes.emplace_back(arr[0].as_double(), arr[1].as_double());
    }
    return discrete(std::move(outcomes));
  }
  throw ConfigError("unknown dwell-time kind: " + kind);
}

HealthStateId DiseaseModel::add_state(HealthState state) {
  for (const auto& existing : states_) {
    EPI_REQUIRE(existing.name != state.name,
                "duplicate health state name: " << state.name);
  }
  states_.push_back(std::move(state));
  progressions_.emplace_back();
  progression_weights_.emplace_back();
  transmissions_by_from_.emplace_back();
  return static_cast<HealthStateId>(states_.size() - 1);
}

HealthStateId DiseaseModel::state_id(const std::string& name) const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return static_cast<HealthStateId>(i);
  }
  throw ConfigError("unknown health state: " + name);
}

void DiseaseModel::add_progression(HealthStateId from, ProgressionEdge edge) {
  EPI_REQUIRE(from < states_.size(), "progression from unknown state");
  EPI_REQUIRE(edge.to < states_.size(), "progression to unknown state");
  std::vector<ProgressionEdge>& edges = progressions_[from];
  edges.push_back(std::move(edge));
  const std::size_t n = edges.size();
  std::vector<double>& weights = progression_weights_[from];
  weights.resize(n * kAgeGroupCount);
  for (std::size_t g = 0; g < kAgeGroupCount; ++g) {
    for (std::size_t i = 0; i < n; ++i) {
      weights[g * n + i] = edges[i].probability[g];
    }
  }
}

const std::vector<ProgressionEdge>& DiseaseModel::progressions_from(
    HealthStateId s) const {
  EPI_REQUIRE(s < states_.size(), "unknown state id " << s);
  return progressions_[s];
}

void DiseaseModel::add_transmission(Transmission t) {
  EPI_REQUIRE(t.from < states_.size() && t.to < states_.size() &&
                  t.source < states_.size(),
              "transmission references unknown state");
  transmissions_.push_back(t);
  transmissions_by_from_[t.from].push_back(t);
}

const std::vector<Transmission>& DiseaseModel::transmissions_from(
    HealthStateId from) const {
  EPI_REQUIRE(from < states_.size(), "unknown state id " << from);
  return transmissions_by_from_[from];
}

void DiseaseModel::set_transmissibility(double tau) {
  EPI_REQUIRE(tau >= 0.0, "transmissibility must be >= 0");
  transmissibility_ = tau;
}

void DiseaseModel::validate() const {
  EPI_REQUIRE(!states_.empty(), "disease model has no states");
  EPI_REQUIRE(initial_state_ < states_.size(), "invalid initial state");
  EPI_REQUIRE(seed_state_ < states_.size(), "invalid seed state");
  EPI_REQUIRE(states_[initial_state_].susceptible(),
              "initial state must be susceptible");
  for (std::size_t s = 0; s < states_.size(); ++s) {
    for (int g = 0; g < kAgeGroupCount; ++g) {
      double total = 0.0;
      for (const auto& edge : progressions_[s]) {
        const double p = edge.probability[static_cast<std::size_t>(g)];
        EPI_REQUIRE(p >= 0.0 && p <= 1.0,
                    "progression probability out of range in state "
                        << states_[s].name);
        total += p;
      }
      // Paper (Appendix D): the sum of exit probabilities must be 1 or 0.
      EPI_REQUIRE(std::abs(total - 1.0) < 1e-6 || std::abs(total) < 1e-12,
                  "progression probabilities out of state "
                      << states_[s].name << " for age group " << g << " sum to "
                      << total << " (must be 0 or 1)");
    }
  }
  for (const auto& t : transmissions_) {
    EPI_REQUIRE(states_[t.source].infectious(),
                "transmission source state " << states_[t.source].name
                                             << " is not infectious");
    EPI_REQUIRE(states_[t.from].susceptible(),
                "transmission entry state " << states_[t.from].name
                                            << " is not susceptible");
    EPI_REQUIRE(t.omega >= 0.0, "negative transmission rate");
  }
}

bool DiseaseModel::sample_progression(HealthStateId from, AgeGroup group,
                                      Rng& rng, HealthStateId* next,
                                      Tick* dwell_ticks) const {
  const auto& edges = progressions_from(from);
  if (edges.empty()) return false;
  const auto g = static_cast<std::size_t>(group);
  const std::span<const double> weights(
      progression_weights_[from].data() + g * edges.size(), edges.size());
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0) return false;  // terminal for this age group
  const std::size_t pick = rng.discrete(weights);
  *next = edges[pick].to;
  *dwell_ticks = edges[pick].dwell[g].sample(rng);
  return true;
}

Json DiseaseModel::to_json() const {
  JsonObject root;
  root["transmissibility"] = transmissibility_;
  root["initialState"] = states_[initial_state_].name;
  root["seedState"] = states_[seed_state_].name;
  JsonArray states;
  for (const auto& s : states_) {
    JsonObject o;
    o["name"] = s.name;
    o["infectivity"] = s.infectivity;
    o["susceptibility"] = s.susceptibility;
    o["symptomatic"] = s.counts_as_symptomatic;
    o["hospitalized"] = s.counts_as_hospitalized;
    o["ventilated"] = s.counts_as_ventilated;
    o["death"] = s.counts_as_death;
    states.push_back(Json(std::move(o)));
  }
  root["states"] = Json(std::move(states));
  JsonArray progressions;
  for (std::size_t from = 0; from < states_.size(); ++from) {
    for (const auto& edge : progressions_[from]) {
      JsonObject o;
      o["from"] = states_[from].name;
      o["to"] = states_[edge.to].name;
      JsonArray probs, dwells;
      for (int g = 0; g < kAgeGroupCount; ++g) {
        probs.push_back(Json(edge.probability[static_cast<std::size_t>(g)]));
        dwells.push_back(edge.dwell[static_cast<std::size_t>(g)].to_json());
      }
      o["probability"] = Json(std::move(probs));
      o["dwell"] = Json(std::move(dwells));
      progressions.push_back(Json(std::move(o)));
    }
  }
  root["progressions"] = Json(std::move(progressions));
  JsonArray transmissions;
  for (const auto& t : transmissions_) {
    JsonObject o;
    o["from"] = states_[t.from].name;
    o["to"] = states_[t.to].name;
    o["source"] = states_[t.source].name;
    o["omega"] = t.omega;
    transmissions.push_back(Json(std::move(o)));
  }
  root["transmissions"] = Json(std::move(transmissions));
  return Json(std::move(root));
}

DiseaseModel DiseaseModel::from_json(const Json& j) {
  DiseaseModel model;
  for (const Json& s : j.at("states").as_array()) {
    HealthState state;
    state.name = s.at("name").as_string();
    state.infectivity = s.at("infectivity").as_double();
    state.susceptibility = s.at("susceptibility").as_double();
    state.counts_as_symptomatic = s.get_bool("symptomatic", false);
    state.counts_as_hospitalized = s.get_bool("hospitalized", false);
    state.counts_as_ventilated = s.get_bool("ventilated", false);
    state.counts_as_death = s.get_bool("death", false);
    model.add_state(std::move(state));
  }
  for (const Json& p : j.at("progressions").as_array()) {
    ProgressionEdge edge;
    edge.to = model.state_id(p.at("to").as_string());
    const auto& probs = p.at("probability").as_array();
    const auto& dwells = p.at("dwell").as_array();
    EPI_REQUIRE(probs.size() == kAgeGroupCount && dwells.size() == kAgeGroupCount,
                "progression arrays must have one entry per age group");
    for (int g = 0; g < kAgeGroupCount; ++g) {
      edge.probability[static_cast<std::size_t>(g)] =
          probs[static_cast<std::size_t>(g)].as_double();
      edge.dwell[static_cast<std::size_t>(g)] =
          DwellTime::from_json(dwells[static_cast<std::size_t>(g)]);
    }
    model.add_progression(model.state_id(p.at("from").as_string()),
                          std::move(edge));
  }
  for (const Json& t : j.at("transmissions").as_array()) {
    Transmission tr;
    tr.from = model.state_id(t.at("from").as_string());
    tr.to = model.state_id(t.at("to").as_string());
    tr.source = model.state_id(t.at("source").as_string());
    tr.omega = t.at("omega").as_double();
    model.add_transmission(tr);
  }
  model.set_transmissibility(j.at("transmissibility").as_double());
  model.set_initial_state(model.state_id(j.at("initialState").as_string()));
  model.set_seed_state(model.state_id(j.at("seedState").as_string()));
  model.validate();
  return model;
}

namespace {

std::array<double, kAgeGroupCount> uniform_prob(double p) {
  return {p, p, p, p, p};
}

std::array<DwellTime, kAgeGroupCount> uniform_dwell(DwellTime d) {
  return {d, d, d, d, d};
}

ProgressionEdge edge_uniform(HealthStateId to, double prob, DwellTime dwell) {
  ProgressionEdge e;
  e.to = to;
  e.probability = uniform_prob(prob);
  e.dwell = uniform_dwell(std::move(dwell));
  return e;
}

ProgressionEdge edge_by_age(HealthStateId to,
                            std::array<double, kAgeGroupCount> prob,
                            std::array<DwellTime, kAgeGroupCount> dwell) {
  ProgressionEdge e;
  e.to = to;
  e.probability = prob;
  e.dwell = std::move(dwell);
  return e;
}

}  // namespace

DiseaseModel covid_model(const CovidParams& params) {
  EPI_REQUIRE(params.symptomatic_fraction >= 0.0 &&
                  params.symptomatic_fraction <= 1.0,
              "symptomatic fraction out of [0,1]");
  using namespace covid_states;
  DiseaseModel m;

  auto plain = [](const char* name) {
    HealthState s;
    s.name = name;
    return s;
  };

  HealthState susceptible = plain(kSusceptible);
  susceptible.susceptibility = 1.0;  // Table IV
  const HealthStateId S = m.add_state(susceptible);

  const HealthStateId E = m.add_state(plain(kExposed));

  HealthState presympt = plain(kPresymptomatic);
  presympt.infectivity = 0.8;  // Table IV
  const HealthStateId P = m.add_state(presympt);

  HealthState asympt = plain(kAsymptomatic);
  asympt.infectivity = 1.0;  // Table IV
  const HealthStateId A = m.add_state(asympt);

  HealthState sympt = plain(kSymptomatic);
  sympt.infectivity = 1.0;  // Table IV
  sympt.counts_as_symptomatic = true;
  const HealthStateId Y = m.add_state(sympt);

  HealthState attended = plain(kAttended);
  attended.counts_as_symptomatic = true;
  const HealthStateId Att = m.add_state(attended);

  HealthState attended_h = plain(kAttendedHosp);
  attended_h.counts_as_symptomatic = true;
  const HealthStateId AttH = m.add_state(attended_h);

  HealthState attended_d = plain(kAttendedDeath);
  attended_d.counts_as_symptomatic = true;
  const HealthStateId AttD = m.add_state(attended_d);

  HealthState hosp = plain(kHospitalized);
  hosp.counts_as_hospitalized = true;
  const HealthStateId H = m.add_state(hosp);

  HealthState hosp_d = plain(kHospitalizedDeath);
  hosp_d.counts_as_hospitalized = true;
  const HealthStateId HD = m.add_state(hosp_d);

  HealthState vent = plain(kVentilated);
  vent.counts_as_hospitalized = true;
  vent.counts_as_ventilated = true;
  const HealthStateId V = m.add_state(vent);

  HealthState vent_d = plain(kVentilatedDeath);
  vent_d.counts_as_hospitalized = true;
  vent_d.counts_as_ventilated = true;
  const HealthStateId VD = m.add_state(vent_d);

  const HealthStateId R = m.add_state(plain(kRecovered));

  HealthState dead = plain(kDeceased);
  dead.counts_as_death = true;
  const HealthStateId D = m.add_state(dead);

  // RX failure: treated but treatment failed; susceptible again (Table IV
  // gives it susceptibility 1.0). A small fraction of Attended land here.
  HealthState rx = plain(kRxFailure);
  rx.susceptibility = 1.0;
  const HealthStateId RX = m.add_state(rx);

  // --- Progressions (Table III; see DESIGN.md for reconstruction notes) --
  const double symp = params.symptomatic_fraction;
  // Exposed branches: asymptomatic vs presymptomatic. Table III has
  // prob(E->A) = 0.35 in the base model; the calibration varies the
  // symptomatic fraction, so prob(E->P) = symp here.
  m.add_progression(
      E, edge_uniform(A, 1.0 - symp, DwellTime::normal(5.0, 1.0)));
  m.add_progression(E, edge_uniform(P, symp, DwellTime::fixed(4.0)));
  // Asymptomatic recover after ~5 days.
  m.add_progression(A, edge_uniform(R, 1.0, DwellTime::normal(5.0, 1.0)));
  // Presymptomatic become symptomatic after a fixed 2 days.
  m.add_progression(P, edge_uniform(Y, 1.0, DwellTime::fixed(2.0)));

  // Symptomatic split three ways by severity, age-stratified (Table III):
  // recovery via medical attention, hospitalization path, or death path.
  const DwellTime attend_delay = DwellTime::discrete({{1, 0.175},
                                                      {2, 0.175},
                                                      {3, 0.1},
                                                      {4, 0.1},
                                                      {5, 0.1},
                                                      {6, 0.1},
                                                      {7, 0.1},
                                                      {8, 0.05},
                                                      {9, 0.05},
                                                      {10, 0.05}});
  m.add_progression(
      Y, edge_by_age(Att, {0.9594, 0.9894, 0.9594, 0.912, 0.788},
                     uniform_dwell(attend_delay)));
  m.add_progression(
      Y, edge_by_age(AttH, {0.04, 0.01, 0.04, 0.085, 0.195},
                     uniform_dwell(DwellTime::fixed(1.0))));
  m.add_progression(
      Y, edge_by_age(AttD, {0.0006, 0.0006, 0.0006, 0.003, 0.017},
                     uniform_dwell(DwellTime::fixed(2.0))));

  // Attended (mild): mostly recover; a sliver fail treatment (RX failure)
  // and become susceptible again.
  m.add_progression(Att, edge_uniform(R, 0.98, DwellTime::normal(5.0, 1.0)));
  m.add_progression(Att, edge_uniform(RX, 0.02, DwellTime::normal(5.0, 1.0)));

  // Hospitalization path: Attended(H) -> Hospitalized after an
  // age-stratified delay (Table III dt-mean row {5,5,5,5.3,4.2}).
  m.add_progression(
      AttH, edge_by_age(H, {1, 1, 1, 1, 1},
                        {DwellTime::normal(5.0, 1.0), DwellTime::normal(5.0, 1.0),
                         DwellTime::normal(5.0, 1.0), DwellTime::normal(5.3, 1.0),
                         DwellTime::normal(4.2, 1.0)}));
  // Hospitalized: most recover, the severe fraction move to ventilation
  // (Table III: {0.06, 0.06, 0.06, 0.15, 0.225}).
  m.add_progression(
      H, edge_by_age(R, {0.94, 0.94, 0.94, 0.85, 0.775},
                     {DwellTime::normal(4.6, 3.7), DwellTime::normal(4.6, 3.7),
                      DwellTime::normal(4.6, 3.7), DwellTime::normal(5.2, 6.3),
                      DwellTime::normal(5.2, 4.9)}));
  m.add_progression(
      H, edge_by_age(V, {0.06, 0.06, 0.06, 0.15, 0.225},
                     {DwellTime::normal(3.1, 0.2), DwellTime::normal(3.1, 0.2),
                      DwellTime::normal(3.1, 0.2), DwellTime::normal(7.8, 1.0),
                      DwellTime::normal(6.5, 1.0)}));
  // Ventilated (survivors) recover (Table III dt-mean {2.1,2.1,2.1,6.8,5.5},
  // dt-std {3.7,3.7,3.7,6.3,4.9}).
  m.add_progression(
      V, edge_by_age(R, {1, 1, 1, 1, 1},
                     {DwellTime::normal(2.1, 3.7), DwellTime::normal(2.1, 3.7),
                      DwellTime::normal(2.1, 3.7), DwellTime::normal(6.8, 6.3),
                      DwellTime::normal(5.5, 4.9)}));

  // Death path (the "(D)" chain): Attended(D) mostly reach the hospital
  // before dying (0.95 / 0.05, Table III).
  m.add_progression(AttD, edge_uniform(HD, 0.95, DwellTime::fixed(2.0)));
  m.add_progression(AttD, edge_uniform(D, 0.05, DwellTime::fixed(8.0)));
  m.add_progression(
      HD, edge_by_age(VD, {0.06, 0.06, 0.06, 0.15, 0.225},
                      uniform_dwell(DwellTime::fixed(4.0))));
  m.add_progression(
      HD, edge_by_age(D, {0.94, 0.94, 0.94, 0.85, 0.775},
                      uniform_dwell(DwellTime::fixed(5.0))));
  m.add_progression(VD, edge_uniform(D, 1.0, DwellTime::fixed(6.0)));

  // --- Transmissions (Table IV) ------------------------------------------
  // Susceptible or RX-failure persons are infected by presymptomatic,
  // symptomatic or asymptomatic contacts.
  for (const HealthStateId from : {S, RX}) {
    for (const HealthStateId source : {P, Y, A}) {
      m.add_transmission(Transmission{from, E, source, 1.0});
    }
  }

  m.set_transmissibility(params.transmissibility);
  m.set_initial_state(S);
  m.set_seed_state(E);
  m.validate();
  return m;
}

}  // namespace epi
