#include "epihiper/scripted.hpp"

#include <cmath>

#include "epihiper/interventions.hpp"
#include "util/error.hpp"

namespace epi {

namespace {
// Coin purpose namespace for scripted sampling, mixed with the intervention
// name hash and block index so distinct scripts sample independently.
constexpr std::uint64_t kScriptCoin = 0x534352ULL;  // "SCR"

std::uint64_t hash_name(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

/// One element-level (or once-level) operation.
struct ScriptedIntervention::Operation {
  enum class Kind {
    kIsolate,
    kSetTrait,
    kScaleInfectivity,
    kScaleSusceptibility,
    kSetHealthState,
    kSetEdgeActive,
    kScaleEdgeWeight,
    kSetVariable,
  };
  Kind kind;
  Tick isolate_days = 14;
  std::string trait;
  std::uint8_t trait_value = 0;
  double factor = 1.0;
  std::string health_state;  // resolved against the model at apply time
  bool active_value = true;
  std::string variable;
  double variable_value = 0.0;
  bool variable_add = false;

  static Operation parse(const Json& spec, bool edge_context) {
    Operation op;
    if (spec.contains("isolate")) {
      require_known_keys(spec, "scripted operation isolate", {"isolate"});
      EPI_REQUIRE(!edge_context, "isolate applies to nodes, not edges");
      op.kind = Kind::kIsolate;
      op.isolate_days = static_cast<Tick>(spec.at("isolate").as_int());
      return op;
    }
    if (spec.contains("setTrait")) {
      require_known_keys(spec, "scripted operation setTrait",
                         {"setTrait", "value"});
      EPI_REQUIRE(!edge_context, "setTrait applies to nodes");
      op.kind = Kind::kSetTrait;
      op.trait = spec.at("setTrait").as_string();
      op.trait_value = static_cast<std::uint8_t>(spec.at("value").as_int());
      return op;
    }
    if (spec.contains("scale")) {
      require_known_keys(spec, "scripted operation scale", {"scale", "factor"});
      const std::string what = spec.at("scale").as_string();
      op.factor = spec.at("factor").as_double();
      if (what == "infectivity") {
        EPI_REQUIRE(!edge_context, "infectivity is a node attribute");
        op.kind = Kind::kScaleInfectivity;
      } else if (what == "susceptibility") {
        EPI_REQUIRE(!edge_context, "susceptibility is a node attribute");
        op.kind = Kind::kScaleSusceptibility;
      } else if (what == "weight") {
        EPI_REQUIRE(edge_context, "weight is an edge attribute");
        op.kind = Kind::kScaleEdgeWeight;
      } else {
        throw ConfigError("unknown scale target: " + what);
      }
      return op;
    }
    if (spec.contains("set")) {
      require_known_keys(spec, "scripted operation set", {"set", "value"});
      const std::string what = spec.at("set").as_string();
      if (what == "active") {
        EPI_REQUIRE(edge_context, "active is an edge attribute");
        op.kind = Kind::kSetEdgeActive;
        op.active_value = spec.at("value").as_bool();
      } else if (what == "healthState") {
        EPI_REQUIRE(!edge_context, "healthState is a node attribute");
        op.kind = Kind::kSetHealthState;
        op.health_state = spec.at("value").as_string();
      } else {
        throw ConfigError("unknown set target: " + what);
      }
      return op;
    }
    if (spec.contains("setVariable")) {
      op.kind = Kind::kSetVariable;
      op.variable = spec.at("setVariable").as_string();
      const char* const amount = spec.contains("add") ? "add" : "value";
      require_known_keys(spec, "scripted operation setVariable",
                         {"setVariable", amount});
      if (spec.contains("add")) {
        op.variable_add = true;
        op.variable_value = spec.at("add").as_double();
      } else {
        op.variable_value = spec.at("value").as_double();
      }
      return op;
    }
    throw ConfigError("unrecognized scripted operation: " + spec.dump());
  }
};

/// One "target set + operations" block of the action ensemble.
struct ScriptedIntervention::ActionBlock {
  enum class Target { kNodes, kEdges, kOnce };
  Target target = Target::kOnce;
  Json filter;  // empty object = everything
  bool has_sampling = false;
  double sample_fraction = 1.0;
  Tick delay = 0;
  std::vector<Operation> operations;
  std::vector<Operation> nonsampled_operations;
  std::size_t index = 0;  // position within the script (sampling key)
};

struct ScriptedIntervention::DelayedBlock {
  Tick due = 0;
  std::size_t block_index = 0;
};

ScriptedIntervention::~ScriptedIntervention() = default;

ScriptedIntervention::ScriptedIntervention(const Json& spec) {
  require_known_keys(spec, "intervention type scripted",
                     {"type", "name", "once", "trigger", "actions"});
  name_ = spec.get_string("name", "scripted");
  once_ = spec.get_bool("once", false);
  EPI_REQUIRE(spec.contains("trigger"), "scripted intervention needs a trigger");
  trigger_ = spec.at("trigger");
  EPI_REQUIRE(spec.contains("actions"), "scripted intervention needs actions");
  std::size_t index = 0;
  for (const Json& action : spec.at("actions").as_array()) {
    require_known_keys(action, "scripted action",
                       {"target", "filter", "sampling", "delay", "operations",
                        "nonsampledOperations"});
    ActionBlock block;
    block.index = index++;
    const std::string target = action.at("target").as_string();
    if (target == "nodes") {
      block.target = ActionBlock::Target::kNodes;
    } else if (target == "edges") {
      block.target = ActionBlock::Target::kEdges;
    } else if (target == "once") {
      block.target = ActionBlock::Target::kOnce;
    } else {
      throw ConfigError("unknown action target: " + target);
    }
    if (action.contains("filter")) {
      block.filter = action.at("filter");
      switch (block.target) {
        case ActionBlock::Target::kNodes:
          require_known_keys(block.filter, "scripted node filter",
                             {"healthState", "ageGroup", "county", "trait",
                              "traitValue"});
          break;
        case ActionBlock::Target::kEdges:
          require_known_keys(block.filter, "scripted edge filter",
                             {"context", "active", "targetHealthState"});
          break;
        case ActionBlock::Target::kOnce:
          throw ConfigError("a scripted action with target once has no filter");
      }
    }
    if (action.contains("sampling")) {
      const Json& sampling = action.at("sampling");
      require_known_keys(sampling, "scripted sampling", {"type", "value"});
      const std::string kind = sampling.at("type").as_string();
      // Only fraction sampling is supported: an exact "absolute" count
      // would require global coordination that EpiHiper also avoids.
      EPI_REQUIRE(kind == "fraction",
                  "unsupported sampling type: " << kind);
      block.has_sampling = true;
      block.sample_fraction = sampling.at("value").as_double();
      EPI_REQUIRE(block.sample_fraction >= 0.0 && block.sample_fraction <= 1.0,
                  "sampling fraction out of [0,1]");
    }
    block.delay = static_cast<Tick>(action.get_int("delay", 0));
    EPI_REQUIRE(block.delay >= 0, "negative delay");
    const bool edge_context = block.target == ActionBlock::Target::kEdges;
    for (const Json& op : action.at("operations").as_array()) {
      block.operations.push_back(Operation::parse(op, edge_context));
    }
    if (action.contains("nonsampledOperations")) {
      EPI_REQUIRE(block.has_sampling,
                  "nonsampledOperations require sampling");
      for (const Json& op : action.at("nonsampledOperations").as_array()) {
        block.nonsampled_operations.push_back(
            Operation::parse(op, edge_context));
      }
    }
    blocks_.push_back(std::move(block));
  }
}

double ScriptedIntervention::evaluate_value(const Json& value,
                                            Simulation& sim) const {
  if (value.contains("value")) return value.at("value").as_double();
  const std::string var = value.at("var").as_string();
  if (var == "time") return static_cast<double>(sim.tick());
  if (var == "stateCount") {
    const HealthStateId state =
        sim.model().state_id(value.at("state").as_string());
    return static_cast<double>(sim.global_state_count(state));
  }
  if (var == "variable") {
    return sim.variable(value.at("name").as_string());
  }
  throw ConfigError("unknown value variable: " + var);
}

bool ScriptedIntervention::evaluate_predicate(const Json& predicate,
                                              Simulation& sim) const {
  const std::string op = predicate.at("op").as_string();
  if (op == "and" || op == "or") {
    const auto& args = predicate.at("args").as_array();
    EPI_REQUIRE(!args.empty(), "empty boolean argument list");
    for (const Json& arg : args) {
      const bool value = evaluate_predicate(arg, sim);
      if (op == "and" && !value) return false;
      if (op == "or" && value) return true;
    }
    return op == "and";
  }
  if (op == "not") {
    return !evaluate_predicate(predicate.at("arg"), sim);
  }
  const double left = evaluate_value(predicate.at("left"), sim);
  const double right = evaluate_value(predicate.at("right"), sim);
  if (op == ">") return left > right;
  if (op == ">=") return left >= right;
  if (op == "<") return left < right;
  if (op == "<=") return left <= right;
  if (op == "==") return left == right;
  if (op == "!=") return left != right;
  throw ConfigError("unknown trigger operator: " + op);
}

bool ScriptedIntervention::evaluate_trigger(Simulation& sim) const {
  return evaluate_predicate(trigger_, sim);
}

namespace {

bool node_matches(const Json& filter, PersonId p, Simulation& sim) {
  if (!filter.is_object()) return true;
  if (filter.contains("healthState")) {
    if (sim.health(p) !=
        sim.model().state_id(filter.at("healthState").as_string())) {
      return false;
    }
  }
  if (filter.contains("ageGroup")) {
    if (static_cast<int>(sim.population().age_group(p)) !=
        static_cast<int>(filter.at("ageGroup").as_int())) {
      return false;
    }
  }
  if (filter.contains("county")) {
    if (sim.population().person(p).county != filter.at("county").as_int()) {
      return false;
    }
  }
  if (filter.contains("trait")) {
    if (sim.node_trait(filter.at("trait").as_string(), p) !=
        static_cast<std::uint8_t>(filter.at("traitValue").as_int())) {
      return false;
    }
  }
  return true;
}

bool edge_matches(const Json& filter, EdgeIndex e, PersonId target,
                  Simulation& sim) {
  if (!filter.is_object()) return true;
  const Contact& c = sim.network().contact(e);
  if (filter.contains("context")) {
    const ActivityType wanted =
        activity_from_name(filter.at("context").as_string());
    if (static_cast<ActivityType>(c.target_activity) != wanted &&
        static_cast<ActivityType>(c.source_activity) != wanted) {
      return false;
    }
  }
  if (filter.contains("active")) {
    if (sim.edge_active(e) != filter.at("active").as_bool()) return false;
  }
  if (filter.contains("targetHealthState")) {
    if (sim.health(target) !=
        sim.model().state_id(filter.at("targetHealthState").as_string())) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ScriptedIntervention::execute_node_ops(const std::vector<Operation>& ops,
                                            PersonId p,
                                            Simulation& sim) const {
  for (const Operation& op : ops) {
    switch (op.kind) {
      case Operation::Kind::kIsolate:
        sim.isolate(p, sim.tick() + op.isolate_days);
        break;
      case Operation::Kind::kSetTrait:
        sim.set_node_trait(op.trait, p, op.trait_value);
        break;
      case Operation::Kind::kScaleInfectivity:
        sim.scale_infectivity(p, op.factor);
        break;
      case Operation::Kind::kScaleSusceptibility:
        sim.scale_susceptibility(p, op.factor);
        break;
      case Operation::Kind::kSetHealthState:
        sim.force_transition(p, sim.model().state_id(op.health_state));
        break;
      case Operation::Kind::kSetVariable:
        execute_once_ops({op}, sim);
        break;
      default:
        throw ConfigError("edge operation applied to a node target");
    }
  }
}

void ScriptedIntervention::execute_edge_ops(const std::vector<Operation>& ops,
                                            EdgeIndex e,
                                            Simulation& sim) const {
  for (const Operation& op : ops) {
    switch (op.kind) {
      case Operation::Kind::kSetEdgeActive:
        sim.set_edge_active(e, op.active_value);
        break;
      case Operation::Kind::kScaleEdgeWeight:
        sim.scale_edge_weight(e, op.factor);
        break;
      case Operation::Kind::kSetVariable:
        execute_once_ops({op}, sim);
        break;
      default:
        throw ConfigError("node operation applied to an edge target");
    }
  }
}

void ScriptedIntervention::execute_once_ops(const std::vector<Operation>& ops,
                                            Simulation& sim) const {
  for (const Operation& op : ops) {
    EPI_REQUIRE(op.kind == Operation::Kind::kSetVariable,
                "once-target operations must be variable updates");
    const double current = sim.variable(op.variable);
    sim.set_variable(op.variable, op.variable_add
                                      ? current + op.variable_value
                                      : op.variable_value);
  }
}

void ScriptedIntervention::execute_block(const ActionBlock& block,
                                         Simulation& sim) const {
  const std::uint64_t sampling_key =
      kScriptCoin ^ hash_name(name_) ^ (block.index << 32);
  switch (block.target) {
    case ActionBlock::Target::kOnce:
      execute_once_ops(block.operations, sim);
      break;
    case ActionBlock::Target::kNodes:
      for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
        if (!node_matches(block.filter, p, sim)) continue;
        const bool sampled =
            !block.has_sampling ||
            sim.person_coin(p, sampling_key, block.sample_fraction);
        if (sampled) {
          execute_node_ops(block.operations, p, sim);
        } else {
          execute_node_ops(block.nonsampled_operations, p, sim);
        }
      }
      break;
    case ActionBlock::Target::kEdges:
      for (PersonId p = sim.local_begin(); p < sim.local_end(); ++p) {
        const auto [begin, end] = sim.in_edges(p);
        for (EdgeIndex e = begin; e < end; ++e) {
          if (!edge_matches(block.filter, e, p, sim)) continue;
          bool sampled = true;
          if (block.has_sampling) {
            // Key on the unordered endpoint pair so both directions of a
            // contact make the same draw on any partitioning.
            const PersonId src = sim.network().contact(e).source;
            const PersonId lo = std::min(p, src);
            const PersonId hi = std::max(p, src);
            Rng edge_rng(mix_labels(sim.config().seed, {sampling_key, lo, hi}));
            sampled = edge_rng.bernoulli(block.sample_fraction);
          }
          if (sampled) {
            execute_edge_ops(block.operations, e, sim);
          } else {
            execute_edge_ops(block.nonsampled_operations, e, sim);
          }
        }
      }
      break;
  }
}

void ScriptedIntervention::apply(Simulation& sim) {
  // Execute any delayed blocks that have come due.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->due <= sim.tick()) {
      execute_block(blocks_[it->block_index], sim);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (exhausted_) return;
  if (!evaluate_trigger(sim)) return;
  ++fired_;
  if (once_) exhausted_ = true;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].delay > 0) {
      pending_.push_back(DelayedBlock{sim.tick() + blocks_[i].delay, i});
    } else {
      execute_block(blocks_[i], sim);
    }
  }
}

std::shared_ptr<ScriptedIntervention> make_initialization(
    const Json& actions, Tick when, const std::string& name) {
  JsonObject spec;
  spec["name"] = name;
  spec["once"] = true;
  JsonObject trigger;
  trigger["op"] = ">=";
  JsonObject left;
  left["var"] = "time";
  trigger["left"] = Json(std::move(left));
  JsonObject right;
  right["value"] = static_cast<double>(when);
  trigger["right"] = Json(std::move(right));
  spec["trigger"] = Json(std::move(trigger));
  spec["actions"] = actions;
  return std::make_shared<ScriptedIntervention>(Json(std::move(spec)));
}

}  // namespace epi
