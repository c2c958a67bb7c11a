// Built-in interventions (paper §VI, Fig 7 bottom).
//
// The paper's base case stacks VHI (voluntary home isolation), SC (school
// closure) and SH (stay-at-home); extensions add RO (partial reopening),
// TA (testing and isolating asymptomatic cases), PS (pulsing shutdown —
// repeatedly alternating SH and RO), and distance-1 / distance-2 contact
// tracing with isolation (D1CT / D2CT), the latter "increasing the running
// time by almost 300% from the base case" because it touches many more
// nodes and edges.
//
// Each intervention is an Appendix-D trigger + action ensemble specialized
// in code: the trigger is the tick/state predicate in apply(), the action
// ensemble the (possibly sampled) state mutations through the Simulation
// API. All sampling is per-person keyed, so parallel runs match serial
// runs exactly.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "epihiper/simulation.hpp"
#include "util/json.hpp"

namespace epi {

/// VHI: symptomatic persons isolate at home with probability `compliance`
/// from symptom onset for `isolation_days`.
class VoluntaryHomeIsolation : public Intervention {
 public:
  struct Config {
    double compliance = 0.75;
    Tick isolation_days = 14;
    Tick start = 0;
  };
  explicit VoluntaryHomeIsolation(Config config) : config_(config) {}
  std::string name() const override { return "VHI"; }
  void apply(Simulation& sim) override;

 private:
  Config config_;
};

/// SC: all school and college contacts disabled in [start, end).
class SchoolClosure : public Intervention {
 public:
  struct Config {
    Tick start = 0;
    Tick end = 1 << 30;
  };
  explicit SchoolClosure(Config config) : config_(config) {}
  std::string name() const override { return "SC"; }
  void apply(Simulation& sim) override;

 private:
  Config config_;
};

/// SH: in [start, end), compliant persons keep only home contacts.
class StayAtHome : public Intervention {
 public:
  struct Config {
    Tick start = 0;
    Tick end = 1 << 30;
    double compliance = 0.6;
  };
  explicit StayAtHome(Config config) : config_(config) {}
  std::string name() const override { return "SH"; }
  void apply(Simulation& sim) override;

 private:
  Config config_;
  bool compliance_assigned_ = false;
};

/// RO: at `reopen_tick`, only a fraction `level` of each person's non-home
/// contacts become active again (per-edge deterministic sampling); models
/// partial reopening after a stay-at-home order expires.
class PartialReopening : public Intervention {
 public:
  struct Config {
    Tick reopen_tick = 75;
    double level = 0.5;  // fraction of non-home edges reactivated
  };
  explicit PartialReopening(Config config) : config_(config) {}
  std::string name() const override { return "RO"; }
  void apply(Simulation& sim) override;

 private:
  Config config_;
  bool applied_ = false;
};

/// TA: from `start`, each asymptomatic or presymptomatic person is
/// detected with probability `daily_detection` per tick and isolated.
class TestAndIsolate : public Intervention {
 public:
  struct Config {
    Tick start = 0;
    double daily_detection = 0.05;
    Tick isolation_days = 14;
  };
  explicit TestAndIsolate(Config config) : config_(config) {}
  std::string name() const override { return "TA"; }
  void apply(Simulation& sim) override;

 private:
  Config config_;
};

/// PS: pulsing shutdown — stay-at-home alternates `on_days` active /
/// `off_days` inactive from `start`, repeatedly rescheduling system-state
/// changes (the paper notes this significantly increases running time).
class PulsingShutdown : public Intervention {
 public:
  struct Config {
    Tick start = 30;
    Tick on_days = 14;
    Tick off_days = 14;
    double compliance = 0.6;
  };
  explicit PulsingShutdown(Config config) : config_(config) {}
  std::string name() const override { return "PS"; }
  void apply(Simulation& sim) override;

 private:
  Config config_;
  bool compliance_assigned_ = false;
  bool last_phase_on_ = false;
};

/// D1CT / D2CT: when a person turns symptomatic (an index case, enrolled
/// with probability `index_compliance`), their contacts are traced; traced
/// persons isolate with probability `trace_compliance` and ALL of them
/// enter a monitoring program for `monitor_days` — each tick the program
/// reviews every monitored person's contact list (and, at depth 2, their
/// contacts' contact lists), which is why distance-2 tracing "affects many
/// more nodes and edges" and dominates running time (Fig 7 bottom). A
/// monitored person who develops symptoms is isolated immediately and
/// re-traced. Tracing expands one hop per tick (the real-world tracing
/// delay) and crosses partition boundaries via an explicit exchange.
class ContactTracing : public Intervention {
 public:
  struct Config {
    int depth = 1;  // 1 = D1CT, 2 = D2CT
    Tick start = 0;
    double index_compliance = 0.5;
    double trace_compliance = 0.75;
    Tick isolation_days = 14;
    Tick monitor_days = 14;
  };
  explicit ContactTracing(Config config);
  std::string name() const override {
    return config_.depth >= 2 ? "D2CT" : "D1CT";
  }
  void apply(Simulation& sim) override;

  /// Number of persons expanded so far (work accounting for Fig 7).
  std::uint64_t expansions() const { return expansions_; }
  /// Contact-list entries reviewed by the monitoring program so far.
  std::uint64_t reviews() const { return reviews_; }

 private:
  void run_monitoring(Simulation& sim);

  Config config_;
  // (person, remaining depth) expansion frontier for the next tick.
  std::vector<std::pair<PersonId, int>> frontier_;
  // Local persons under daily follow-up -> last monitored tick. Ordered:
  // run_monitoring() iterates this map, and the iteration order feeds the
  // re-entry order of the tracing frontier — with an unordered map that
  // order would be hash order, which differs across libstdc++ versions.
  std::map<PersonId, Tick> monitored_until_;
  std::uint64_t expansions_ = 0;
  std::uint64_t reviews_ = 0;
};

/// Named intervention stacks of Fig 7 (bottom): "base" = VHI+SC+SH, then
/// base+RO, base+TA, base+PS, base+D1CT, base+D2CT.
std::vector<std::shared_ptr<Intervention>> make_intervention_stack(
    const std::string& stack_name);

/// Names accepted by make_intervention_stack, in Fig 7 order.
const std::vector<std::string>& intervention_stack_names();

/// Builds one intervention from a JSON spec {"type": "VHI", ...}; the
/// workflow layer uses this to materialize cell configurations. A
/// built-in type's spec may hold only "type" and that type's own keys,
/// and every object of a "scripted" spec only the keys it reads; any
/// other key throws ConfigError naming the object and the key.
std::shared_ptr<Intervention> intervention_from_json(const Json& spec);

/// Throws ConfigError "<what> has no key '<key>'" unless every key of the
/// object `spec` is one of `known`: a misspelled knob must not silently
/// run at its default.
void require_known_keys(const Json& spec, const std::string& what,
                        std::initializer_list<std::string_view> known);

}  // namespace epi
