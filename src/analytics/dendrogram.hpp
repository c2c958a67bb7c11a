// Transmission trees ("dendograms" in the paper's terminology): trees of
// who-infected-whom rooted at initial infections, extracted from the
// transition log. Prediction workflows ship ~1 TB of this data per night;
// here it also yields epidemiological diagnostics (offspring counts — an
// empirical R estimate — tree sizes and depths).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "epihiper/simulation.hpp"

namespace epi {

/// The who-infected-whom forest of one replicate.
class TransmissionForest {
 public:
  /// Builds the forest from a transition log: every event with an
  /// infector becomes an edge infector -> person; seeded exposures (no
  /// infector) become roots.
  explicit TransmissionForest(const std::vector<TransitionEvent>& transitions);

  std::size_t tree_count() const { return roots_.size(); }
  std::size_t infection_count() const { return edges_; }
  const std::vector<PersonId>& roots() const { return roots_; }
  /// Persons `p` infected, in log order (empty for ids outside the log).
  std::span<const PersonId> children(PersonId p) const;
  /// Tick at which `p` was infected (or -1 if never infected).
  Tick infection_tick(PersonId p) const;

  /// Size (number of infections, root included) of the tree rooted at r.
  std::size_t tree_size(PersonId root) const;
  /// Depth (longest root-to-leaf chain, root = 0) of the tree at r.
  std::size_t tree_depth(PersonId root) const;

  /// Mean offspring count over all infected persons whose infectious
  /// period ended at least `horizon` ticks before the log ends — an
  /// empirical reproduction-number estimate.
  double mean_offspring(Tick horizon = 21) const;

  /// Serialized dendrogram size in bytes, production line format
  /// (the Fig 5 transmission-tree volume accounting).
  std::uint64_t byte_size() const;

 private:
  // Person-indexed, sized to the largest id in the log + 1: the first
  // infection tick (-1 = never) and a CSR over infectors whose child
  // lists keep log order.
  std::vector<Tick> infected_at_;
  std::vector<std::size_t> child_begin_;
  std::vector<PersonId> child_list_;
  std::vector<PersonId> infection_order_;  // first infections, log order
  std::vector<PersonId> roots_;
  std::size_t edges_ = 0;
  Tick last_tick_ = 0;
};

}  // namespace epi
