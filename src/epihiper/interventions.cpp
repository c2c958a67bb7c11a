#include "epihiper/interventions.hpp"

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <type_traits>

#include "epihiper/scripted.hpp"
#include "util/error.hpp"

namespace epi {

namespace {
// Coin-purpose labels (see Simulation::person_coin).
constexpr std::uint64_t kVhiCoin = 0x564849ULL;      // "VHI"
constexpr std::uint64_t kShCoin = 0x5348ULL;         // "SH"
constexpr std::uint64_t kPsCoin = 0x5053ULL;         // "PS"
constexpr std::uint64_t kRoCoin = 0x524fULL;         // "RO"
constexpr std::uint64_t kTaCoin = 0x5441ULL;         // "TA"
constexpr std::uint64_t kCtIndexCoin = 0x435449ULL;  // "CTI"
constexpr std::uint64_t kCtTraceCoin = 0x435454ULL;  // "CTT"

/// Wire format of a tracing-frontier entry routed to its owner rank.
struct FrontierRecord {
  PersonId person;
  std::int32_t depth;
};
static_assert(std::is_trivially_copyable_v<FrontierRecord> &&
                  sizeof(FrontierRecord) == 8,
              "FrontierRecord is a packed wire struct");

}  // namespace

void require_known_keys(const Json& spec, const std::string& what,
                        std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : spec.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw ConfigError(what + " has no key '" + key + "'");
    }
  }
}

void VoluntaryHomeIsolation::apply(Simulation& sim) {
  if (sim.tick() < config_.start) return;
  const HealthStateId symptomatic =
      sim.model().state_id(covid_states::kSymptomatic);
  for (PersonId p : sim.entered_this_tick(symptomatic)) {
    if (sim.person_coin(p, kVhiCoin, config_.compliance)) {
      sim.isolate(p, sim.tick() + config_.isolation_days);
    }
  }
}

void SchoolClosure::apply(Simulation& sim) {
  const bool closed = sim.tick() >= config_.start && sim.tick() < config_.end;
  sim.set_context_closed(ActivityType::kSchool, closed);
  sim.set_context_closed(ActivityType::kCollege, closed);
}

void StayAtHome::apply(Simulation& sim) {
  if (!compliance_assigned_ && sim.tick() >= config_.start) {
    for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
      sim.set_stay_home_compliant(
          p, sim.person_coin(p, kShCoin, config_.compliance));
    }
    compliance_assigned_ = true;
  }
  sim.set_stay_home_active(sim.tick() >= config_.start &&
                           sim.tick() < config_.end);
}

void PartialReopening::apply(Simulation& sim) {
  if (applied_ || sim.tick() < config_.reopen_tick) return;
  applied_ = true;
  // Deterministically sample the surviving fraction of non-home edges;
  // keyed on the global edge index so any partitioning agrees.
  const ContactNetwork& net = sim.network();
  for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
    for (EdgeIndex e = net.in_begin(p); e < net.in_end(p); ++e) {
      const Contact& c = net.contact(e);
      const bool home_edge =
          static_cast<ActivityType>(c.target_activity) == ActivityType::kHome &&
          static_cast<ActivityType>(c.source_activity) == ActivityType::kHome;
      if (home_edge) continue;
      // Key on the unordered pair so both directions of a contact agree.
      const PersonId lo = std::min(p, c.source);
      const PersonId hi = std::max(p, c.source);
      Rng edge_rng(mix_labels(sim.config().seed, {kRoCoin, lo, hi}));
      sim.set_edge_active(e, edge_rng.bernoulli(config_.level));
    }
  }
}

void TestAndIsolate::apply(Simulation& sim) {
  if (sim.tick() < config_.start) return;
  const HealthStateId asympt =
      sim.model().state_id(covid_states::kAsymptomatic);
  const HealthStateId presympt =
      sim.model().state_id(covid_states::kPresymptomatic);
  for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
    const HealthStateId h = sim.health(p);
    if (h != asympt && h != presympt) continue;
    if (sim.is_isolated(p)) continue;
    // Per-(person, tick) detection draw.
    const auto purpose =
        kTaCoin ^ (static_cast<std::uint64_t>(sim.tick()) << 16);
    if (sim.person_coin(p, purpose, config_.daily_detection)) {
      sim.isolate(p, sim.tick() + config_.isolation_days);
    }
  }
}

void PulsingShutdown::apply(Simulation& sim) {
  if (sim.tick() < config_.start) {
    return;
  }
  if (!compliance_assigned_) {
    for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
      sim.set_stay_home_compliant(
          p, sim.person_coin(p, kPsCoin, config_.compliance));
    }
    compliance_assigned_ = true;
  }
  const Tick phase =
      (sim.tick() - config_.start) % (config_.on_days + config_.off_days);
  const bool shutdown_on = phase < config_.on_days;
  sim.set_stay_home_active(shutdown_on);
  // Each pulse boundary reschedules the per-edge system-state changes of
  // every compliant person — the repeated SH<->RO alternation whose
  // bookkeeping the paper singles out as significantly increasing running
  // time (and memory, Fig 10). The edge flags end up consistent with the
  // stay-home semantics; the cost of rewriting them is the point.
  if (shutdown_on != last_phase_on_) {
    last_phase_on_ = shutdown_on;
    const ContactNetwork& net = sim.network();
    for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
      for (EdgeIndex e = net.in_begin(p); e < net.in_end(p); ++e) {
        const Contact& c = net.contact(e);
        const bool home_edge =
            static_cast<ActivityType>(c.target_activity) == ActivityType::kHome &&
            static_cast<ActivityType>(c.source_activity) == ActivityType::kHome;
        if (home_edge) continue;
        const bool endpoint_compliant =
            sim.person_coin(p, kPsCoin, config_.compliance) ||
            sim.person_coin(c.source, kPsCoin, config_.compliance);
        if (!endpoint_compliant) continue;
        sim.set_edge_active(e, !shutdown_on);
      }
    }
  }
}

ContactTracing::ContactTracing(Config config) : config_(config) {
  EPI_REQUIRE(config_.depth >= 1 && config_.depth <= 2,
              "contact tracing depth must be 1 or 2");
}

void ContactTracing::run_monitoring(Simulation& sim) {
  // Daily follow-up of everyone in the monitoring program: review the
  // person's contact list (depth 1) and, for D2CT, the contact lists of
  // their local contacts as well. A monitored person who has developed
  // symptoms is isolated immediately (they are already enrolled, no
  // compliance draw) and their contacts re-enter the tracing frontier.
  const ContactNetwork& net = sim.network();
  const HealthStateId symptomatic =
      sim.model().state_id(covid_states::kSymptomatic);
  for (auto it = monitored_until_.begin(); it != monitored_until_.end();) {
    if (it->second < sim.tick()) {
      it = monitored_until_.erase(it);
      continue;
    }
    const PersonId person = it->first;
    // Review the monitored person's contact diary; at depth 2, also walk
    // each (locally resident) contact's own diary to assess second-ring
    // exposure — reading every edge record, which is where D2CT's cost
    // lives. The accumulated exposure minutes feed the tracer-workload
    // variable below.
    std::uint64_t exposure_minutes = 0;
    for (EdgeIndex e = net.in_begin(person); e < net.in_end(person); ++e) {
      ++reviews_;
      exposure_minutes += net.contact(e).duration_minutes;
      if (config_.depth >= 2) {
        const PersonId contact = net.contact(e).source;
        if (sim.is_local(contact)) {
          for (EdgeIndex f = net.in_begin(contact); f < net.in_end(contact);
               ++f) {
            ++reviews_;
            exposure_minutes += net.contact(f).duration_minutes;
          }
        }
      }
    }
    sim.set_variable("ct_exposure_minutes",
                     sim.variable("ct_exposure_minutes") +
                         static_cast<double>(exposure_minutes));
    if (sim.health(person) == symptomatic && !sim.is_isolated(person)) {
      sim.isolate(person, sim.tick() + config_.isolation_days);
      for (EdgeIndex e = net.in_begin(person); e < net.in_end(person); ++e) {
        const PersonId contact = net.contact(e).source;
        if (sim.person_coin(contact, kCtTraceCoin ^ person,
                            config_.trace_compliance)) {
          frontier_.emplace_back(contact, config_.depth - 1);
        }
      }
    }
    ++it;
  }
}

void ContactTracing::apply(Simulation& sim) {
  // Phase 0: daily follow-up of the monitoring program.
  run_monitoring(sim);

  // Phase 1: route pending expansion requests to their owner ranks.
  // (Collective — every rank participates every tick.)
  std::vector<std::pair<PersonId, int>> local_frontier;
  if (sim.comm() != nullptr) {
    auto* comm = sim.comm();
    std::vector<std::vector<FrontierRecord>> outbox(
        static_cast<std::size_t>(comm->size()));
    for (const auto& [person, depth] : frontier_) {
      if (sim.is_local(person)) {
        local_frontier.emplace_back(person, depth);
      } else {
        outbox[sim.owner(person)].push_back(FrontierRecord{person, depth});
      }
    }
    const auto inbox = comm->alltoallv(outbox);
    for (const auto& messages : inbox) {
      for (const FrontierRecord& record : messages) {
        EPI_ASSERT(sim.is_local(record.person),
                   "misrouted contact-tracing frontier entry "
                       << record.person);
        local_frontier.emplace_back(record.person, record.depth);
      }
    }
  } else {
    local_frontier = frontier_;
  }
  frontier_.clear();

  // Phase 2: expand the frontier — isolate each traced person and, if
  // depth remains, enqueue their contacts for the next tick.
  const ContactNetwork& net = sim.network();
  for (const auto& [person, depth] : local_frontier) {
    ++expansions_;
    // Everyone traced enters the monitoring program; isolation additionally
    // requires the compliance draw made when they were enqueued.
    Tick& monitored = monitored_until_[person];
    monitored = std::max(monitored, sim.tick() + config_.monitor_days);
    sim.isolate(person, sim.tick() + config_.isolation_days);
    if (depth <= 0) continue;
    for (EdgeIndex e = net.in_begin(person); e < net.in_end(person); ++e) {
      const PersonId contact = net.contact(e).source;
      if (!sim.person_coin(contact, kCtTraceCoin ^ person,
                           config_.trace_compliance)) {
        continue;
      }
      frontier_.emplace_back(contact, depth - 1);
    }
  }

  // Phase 3: enroll new index cases.
  if (sim.tick() < config_.start) return;
  const HealthStateId symptomatic =
      sim.model().state_id(covid_states::kSymptomatic);
  for (PersonId p : sim.entered_this_tick(symptomatic)) {
    if (!sim.person_coin(p, kCtIndexCoin, config_.index_compliance)) continue;
    for (EdgeIndex e = net.in_begin(p); e < net.in_end(p); ++e) {
      const PersonId contact = net.contact(e).source;
      if (!sim.person_coin(contact, kCtTraceCoin ^ p,
                           config_.trace_compliance)) {
        continue;
      }
      frontier_.emplace_back(contact, config_.depth - 1);
    }
  }
}

const std::vector<std::string>& intervention_stack_names() {
  static const std::vector<std::string> names = {
      "base", "base+RO", "base+TA", "base+PS", "base+D1CT", "base+D2CT"};
  return names;
}

std::vector<std::shared_ptr<Intervention>> make_intervention_stack(
    const std::string& stack_name) {
  std::vector<std::shared_ptr<Intervention>> stack;
  // Base case (paper §VI): VHI + SC + SH.
  stack.push_back(std::make_shared<VoluntaryHomeIsolation>(
      VoluntaryHomeIsolation::Config{}));
  stack.push_back(std::make_shared<SchoolClosure>(SchoolClosure::Config{10}));
  stack.push_back(
      std::make_shared<StayAtHome>(StayAtHome::Config{20, 80, 0.6}));
  if (stack_name == "base") return stack;
  if (stack_name == "base+RO") {
    stack.push_back(std::make_shared<PartialReopening>(
        PartialReopening::Config{80, 0.5}));
    return stack;
  }
  if (stack_name == "base+TA") {
    stack.push_back(
        std::make_shared<TestAndIsolate>(TestAndIsolate::Config{20, 0.05, 14}));
    return stack;
  }
  if (stack_name == "base+PS") {
    stack.push_back(std::make_shared<PulsingShutdown>(
        PulsingShutdown::Config{20, 14, 14, 0.6}));
    return stack;
  }
  if (stack_name == "base+D1CT") {
    stack.push_back(std::make_shared<ContactTracing>(
        ContactTracing::Config{1, 15, 0.5, 0.75, 14}));
    return stack;
  }
  if (stack_name == "base+D2CT") {
    stack.push_back(std::make_shared<ContactTracing>(
        ContactTracing::Config{2, 15, 0.5, 0.75, 14}));
    return stack;
  }
  throw ConfigError("unknown intervention stack: " + stack_name);
}

std::shared_ptr<Intervention> intervention_from_json(const Json& spec) {
  const std::string type = spec.at("type").as_string();
  const std::string what = "intervention type " + type;
  if (type == "VHI") {
    require_known_keys(spec, what,
                       {"type", "compliance", "isolationDays", "start"});
    VoluntaryHomeIsolation::Config c;
    c.compliance = spec.get_double("compliance", c.compliance);
    c.isolation_days =
        static_cast<Tick>(spec.get_int("isolationDays", c.isolation_days));
    c.start = static_cast<Tick>(spec.get_int("start", c.start));
    return std::make_shared<VoluntaryHomeIsolation>(c);
  }
  if (type == "SC") {
    require_known_keys(spec, what, {"type", "start", "end"});
    SchoolClosure::Config c;
    c.start = static_cast<Tick>(spec.get_int("start", c.start));
    c.end = static_cast<Tick>(spec.get_int("end", c.end));
    return std::make_shared<SchoolClosure>(c);
  }
  if (type == "SH") {
    require_known_keys(spec, what, {"type", "start", "end", "compliance"});
    StayAtHome::Config c;
    c.start = static_cast<Tick>(spec.get_int("start", c.start));
    c.end = static_cast<Tick>(spec.get_int("end", c.end));
    c.compliance = spec.get_double("compliance", c.compliance);
    return std::make_shared<StayAtHome>(c);
  }
  if (type == "RO") {
    require_known_keys(spec, what, {"type", "reopenTick", "level"});
    PartialReopening::Config c;
    c.reopen_tick = static_cast<Tick>(spec.get_int("reopenTick", c.reopen_tick));
    c.level = spec.get_double("level", c.level);
    return std::make_shared<PartialReopening>(c);
  }
  if (type == "TA") {
    require_known_keys(spec, what,
                       {"type", "start", "dailyDetection", "isolationDays"});
    TestAndIsolate::Config c;
    c.start = static_cast<Tick>(spec.get_int("start", c.start));
    c.daily_detection = spec.get_double("dailyDetection", c.daily_detection);
    c.isolation_days =
        static_cast<Tick>(spec.get_int("isolationDays", c.isolation_days));
    return std::make_shared<TestAndIsolate>(c);
  }
  if (type == "PS") {
    require_known_keys(spec, what,
                       {"type", "start", "onDays", "offDays", "compliance"});
    PulsingShutdown::Config c;
    c.start = static_cast<Tick>(spec.get_int("start", c.start));
    c.on_days = static_cast<Tick>(spec.get_int("onDays", c.on_days));
    c.off_days = static_cast<Tick>(spec.get_int("offDays", c.off_days));
    c.compliance = spec.get_double("compliance", c.compliance);
    return std::make_shared<PulsingShutdown>(c);
  }
  if (type == "scripted") {
    return std::make_shared<ScriptedIntervention>(spec);
  }
  if (type == "D1CT" || type == "D2CT") {
    require_known_keys(spec, what,
                       {"type", "start", "indexCompliance", "traceCompliance",
                        "isolationDays", "monitorDays"});
    ContactTracing::Config c;
    c.depth = type == "D2CT" ? 2 : 1;
    c.start = static_cast<Tick>(spec.get_int("start", c.start));
    c.index_compliance =
        spec.get_double("indexCompliance", c.index_compliance);
    c.trace_compliance =
        spec.get_double("traceCompliance", c.trace_compliance);
    c.isolation_days =
        static_cast<Tick>(spec.get_int("isolationDays", c.isolation_days));
    c.monitor_days =
        static_cast<Tick>(spec.get_int("monitorDays", c.monitor_days));
    return std::make_shared<ContactTracing>(c);
  }
  throw ConfigError("unknown intervention type: " + type);
}

}  // namespace epi
