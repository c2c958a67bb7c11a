// Disease model: a probabilistic timed transition system (PTTS).
//
// Paper Fig 12 / Appendix B: health states with (a) *transmissions* —
// contact-driven transitions of a susceptible person triggered by an
// infectious neighbor, governed by the propensity law of Eq (1) — and (b)
// *progressions* — within-host timed transitions, each with an exit
// probability and a dwell-time distribution, possibly age-stratified
// (Table III). State attributes (infectivity, susceptibility) come from
// Table IV. Models are specified independently of the population and
// network, are JSON round-trippable, and a built-in CDC COVID-19 model
// (the paper's Table III/IV "best guess" configuration) ships in
// covid_model().
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "synthpop/population.hpp"  // kAgeGroupCount
#include "util/json.hpp"
#include "util/rng.hpp"

namespace epi {

using HealthStateId = std::uint16_t;
using Tick = std::int32_t;

inline constexpr HealthStateId kNoState = 0xFFFF;

/// Dwell-time distribution for a progression edge (Table III uses fixed,
/// truncated-normal ("dt-mean"/"dt-std dev") and discrete ("dt-discrete")
/// forms).
class DwellTime {
 public:
  enum class Kind : std::uint8_t { kFixed, kNormal, kDiscrete };

  static DwellTime fixed(double days);
  static DwellTime normal(double mean, double stddev);
  /// `outcomes` = (days, probability) pairs; probabilities sum to 1.
  static DwellTime discrete(std::vector<std::pair<double, double>> outcomes);

  /// Samples a dwell time in whole ticks, always >= 1 (a progression never
  /// completes within the tick it was scheduled).
  Tick sample(Rng& rng) const;

  double mean() const;

  Kind kind() const { return kind_; }

  Json to_json() const;
  static DwellTime from_json(const Json& j);

 private:
  Kind kind_ = Kind::kFixed;
  double fixed_days_ = 1.0;
  double mean_days_ = 1.0;
  double stddev_days_ = 0.0;
  // Discrete outcomes, split so sample() hands the weights to
  // Rng::discrete as they are.
  std::vector<double> outcome_days_;
  std::vector<double> outcome_weights_;
};

/// One progression edge out of a state, age-stratified.
struct ProgressionEdge {
  HealthStateId to = kNoState;
  /// Exit probability per age group; the probabilities of all edges out of
  /// a state must sum to 1 (or 0 for terminal states) in each age group.
  std::array<double, kAgeGroupCount> probability{};
  /// Dwell time per age group (Table III stratifies some dwell times).
  std::array<DwellTime, kAgeGroupCount> dwell;
};

/// A health state with its transmission-relevant attributes (Table IV).
struct HealthState {
  std::string name;
  double infectivity = 0.0;     // iota scaling when this person is a source
  double susceptibility = 0.0;  // sigma scaling when this person is a target
  bool counts_as_symptomatic = false;   // aggregation flag for case counts
  bool counts_as_hospitalized = false;  // occupies a hospital bed
  bool counts_as_ventilated = false;    // occupies a ventilator
  bool counts_as_death = false;
  bool infectious() const { return infectivity > 0.0; }
  bool susceptible() const { return susceptibility > 0.0; }
};

/// Contact-driven transmission T_{i,j,k}: a person in entry state `from`
/// (X_i) in contact with a person in infectious state `source` (X_k) may
/// transition to `to` (X_j) with transmission weight omega.
struct Transmission {
  HealthStateId from = kNoState;
  HealthStateId to = kNoState;
  HealthStateId source = kNoState;
  double omega = 1.0;
};

/// The complete PTTS.
class DiseaseModel {
 public:
  /// Adds a state; returns its id. Names must be unique.
  HealthStateId add_state(HealthState state);

  HealthStateId state_id(const std::string& name) const;
  const HealthState& state(HealthStateId id) const { return states_[id]; }
  std::size_t state_count() const { return states_.size(); }

  void add_progression(HealthStateId from, ProgressionEdge edge);
  const std::vector<ProgressionEdge>& progressions_from(HealthStateId s) const;

  void add_transmission(Transmission t);
  const std::vector<Transmission>& transmissions() const {
    return transmissions_;
  }
  /// Transmissions applicable to a target currently in state `from`.
  const std::vector<Transmission>& transmissions_from(HealthStateId from) const;

  /// Global transmissibility scaling tau (Table IV: 0.18 for the
  /// calibrated base model; the primary calibration parameter).
  double transmissibility() const { return transmissibility_; }
  void set_transmissibility(double tau);

  /// The state newly synthesized persons start in.
  HealthStateId initial_state() const { return initial_state_; }
  void set_initial_state(HealthStateId s) { initial_state_ = s; }

  /// The state a transmission seeds (exposure target for seeding).
  HealthStateId seed_state() const { return seed_state_; }
  void set_seed_state(HealthStateId s) { seed_state_ = s; }

  /// Validates structural invariants (probabilities sum to 1 or 0 per age
  /// group, transmission endpoints exist, initial state is susceptible).
  /// Throws ConfigError on violation.
  void validate() const;

  /// Samples the progression out of `from` for `group`: picks an edge by
  /// probability and a dwell time. Returns false (and leaves outputs
  /// untouched) for terminal states. Allocates nothing.
  bool sample_progression(HealthStateId from, AgeGroup group, Rng& rng,
                          HealthStateId* next, Tick* dwell_ticks) const;

  Json to_json() const;
  static DiseaseModel from_json(const Json& j);

 private:
  std::vector<HealthState> states_;
  std::vector<std::vector<ProgressionEdge>> progressions_;
  // Per state, the exit probabilities of its progressions_ as
  // kAgeGroupCount rows, row g holding every edge's group-g probability in
  // edge order: the weights sample_progression draws from.
  std::vector<std::vector<double>> progression_weights_;
  std::vector<Transmission> transmissions_;
  std::vector<std::vector<Transmission>> transmissions_by_from_;
  double transmissibility_ = 1.0;
  HealthStateId initial_state_ = 0;
  HealthStateId seed_state_ = 0;
};

/// Parameters that calibration varies on top of the base COVID model
/// (case study 3: "the disease transmissibility and the ratio between
/// symptomatic and asymptomatic cases").
struct CovidParams {
  double transmissibility = 0.18;   // TAU
  double symptomatic_fraction = 0.65;  // SYMP: P(Exposed -> Presymptomatic)
};

/// Builds the paper's COVID-19 PTTS (Fig 12, Tables III-IV): Susceptible,
/// Exposed, Presymptomatic/Asymptomatic branch, Symptomatic, medically
/// attended / hospitalized / ventilated branches with recovery and death
/// paths, age-stratified severity, plus RX-failure. Dwell-time values not
/// fully legible in the preprint's Table III are reconstructed from the
/// CDC planning-scenario document it cites; see DESIGN.md.
DiseaseModel covid_model(const CovidParams& params = {});

/// Canonical state names of the COVID model (shared with tests/analytics).
namespace covid_states {
inline constexpr const char* kSusceptible = "Susceptible";
inline constexpr const char* kExposed = "Exposed";
inline constexpr const char* kPresymptomatic = "Presymptomatic";
inline constexpr const char* kAsymptomatic = "Asymptomatic";
inline constexpr const char* kSymptomatic = "Symptomatic";
inline constexpr const char* kAttended = "Attended";
inline constexpr const char* kAttendedHosp = "Attended(H)";
inline constexpr const char* kAttendedDeath = "Attended(D)";
inline constexpr const char* kHospitalized = "Hospitalized";
inline constexpr const char* kHospitalizedDeath = "Hospitalized(D)";
inline constexpr const char* kVentilated = "Ventilated";
inline constexpr const char* kVentilatedDeath = "Ventilated(D)";
inline constexpr const char* kRecovered = "Recovered";
inline constexpr const char* kDeceased = "Deceased";
inline constexpr const char* kRxFailure = "RxFailure";
}  // namespace covid_states

}  // namespace epi
