#include "analytics/dendrogram.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace epi {

TransmissionForest::TransmissionForest(
    const std::vector<TransitionEvent>& transitions) {
  std::size_t persons = 0;
  for (const TransitionEvent& event : transitions) {
    persons = std::max<std::size_t>(persons, event.person + std::size_t{1});
    if (event.infector != kNoPerson) {
      persons = std::max<std::size_t>(persons, event.infector + std::size_t{1});
    }
  }
  infected_at_.assign(persons, -1);
  child_begin_.assign(persons + 1, 0);
  std::vector<std::pair<PersonId, PersonId>> edges;  // (infector, person)
  for (const TransitionEvent& event : transitions) {
    last_tick_ = std::max(last_tick_, event.tick);
    // An infection event is the first transition of a person caused by a
    // contact, or a seeded exposure (no infector). Later transitions of
    // the same person are within-host progressions.
    if (infected_at_[event.person] != -1) continue;
    if (event.infector != kNoPerson) {
      infected_at_[event.person] = event.tick;
      infection_order_.push_back(event.person);
      edges.emplace_back(event.infector, event.person);
      ++child_begin_[event.infector + std::size_t{1}];
    } else if (event.exit_state != kNoState) {
      // A seed: treat the first causeless transition as the root infection
      // if the person is never attributed to an infector.
      infected_at_[event.person] = event.tick;
      infection_order_.push_back(event.person);
      roots_.push_back(event.person);
    }
  }
  edges_ = edges.size();
  // Counting scatter in log order, so every child list keeps it.
  for (std::size_t p = 0; p < persons; ++p) {
    child_begin_[p + 1] += child_begin_[p];
  }
  child_list_.resize(edges_);
  std::vector<std::size_t> next(child_begin_.begin(), child_begin_.end() - 1);
  for (const auto& [infector, person] : edges) {
    child_list_[next[infector]++] = person;
  }
}

std::span<const PersonId> TransmissionForest::children(PersonId p) const {
  if (p >= infected_at_.size()) return {};
  return std::span<const PersonId>(child_list_)
      .subspan(child_begin_[p], child_begin_[p + 1] - child_begin_[p]);
}

Tick TransmissionForest::infection_tick(PersonId p) const {
  return p < infected_at_.size() ? infected_at_[p] : -1;
}

std::size_t TransmissionForest::tree_size(PersonId root) const {
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

std::size_t TransmissionForest::tree_depth(PersonId root) const {
  std::size_t max_depth = 0;
  std::vector<std::pair<PersonId, std::size_t>> stack = {{root, 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    for (PersonId child : children(node)) stack.emplace_back(child, depth + 1);
  }
  return max_depth;
}

double TransmissionForest::mean_offspring(Tick horizon) const {
  // Only count persons infected early enough that their offspring are
  // fully observed; otherwise right-censoring biases the estimate down.
  std::size_t eligible = 0;
  std::size_t offspring = 0;
  for (const PersonId person : infection_order_) {
    if (infected_at_[person] + horizon > last_tick_) continue;
    ++eligible;
    offspring += children(person).size();
  }
  if (eligible == 0) return 0.0;
  return static_cast<double>(offspring) / static_cast<double>(eligible);
}

std::uint64_t TransmissionForest::byte_size() const {
  // "infectorPid,personPid,tick\n" ~ 24 bytes per transmission edge.
  return (edges_ + roots_.size()) * 24;
}

}  // namespace epi
