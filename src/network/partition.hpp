// Contact-network partitioning (paper §III, "Input Data ... contact
// networks").
//
// The objective: split the contact network so each partition holds
// approximately the same number of edges while ALL incoming edges of any
// node land in the same partition. The paper deliberately uses a simple
// threshold algorithm — "given a partition, continue to allocate nodes to
// that partition until the number of incoming edges is greater than a
// threshold (E/P + eps)" — because even that takes significant compute
// time at national scale (partitioning California alone exceeds an hour),
// and caches the result on disk for future runs. Both the algorithm and
// the cache are implemented here.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "network/contact_network.hpp"

namespace epi {

/// One partition: a contiguous node range [node_begin, node_end) and the
/// corresponding incoming-edge range (contiguity follows from the CSR
/// layout and the node-order sweep).
struct Partition {
  PersonId node_begin = 0;
  PersonId node_end = 0;
  EdgeIndex edge_begin = 0;
  EdgeIndex edge_end = 0;

  std::uint64_t node_count() const { return node_end - node_begin; }
  std::uint64_t edge_count() const { return edge_end - edge_begin; }
};

/// A full partitioning of a network.
class Partitioning {
 public:
  Partitioning() = default;
  explicit Partitioning(std::vector<Partition> parts);

  const std::vector<Partition>& parts() const { return parts_; }
  std::size_t size() const { return parts_.size(); }
  const Partition& part(std::size_t i) const { return parts_[i]; }

  /// Partition index owning node v (binary search over ranges).
  std::size_t partition_of(PersonId v) const;

  /// Load imbalance: max partition edge count / mean partition edge count.
  double edge_imbalance() const;

  /// Binary round-trip for the on-disk partition cache. load() checks the
  /// header's count against the file size before allocating; a malformed
  /// file throws ConfigError.
  void save(const std::string& path) const;
  static Partitioning load(const std::string& path);

 private:
  std::vector<Partition> parts_;
};

/// The paper's threshold sweep. `epsilon` is the tolerance factor eps in
/// the threshold E/P + eps, expressed in edges. Every node's in-edges stay
/// together by construction. Produces at most `num_partitions` parts (the
/// final part absorbs the tail) and never an empty prefix part.
Partitioning partition_network(const ContactNetwork& network,
                               std::size_t num_partitions,
                               std::uint64_t epsilon = 0);

/// Cache key incorporating network content hash, P and eps, so a change to
/// any of them invalidates the cached partitioning.
std::string partition_cache_filename(const ContactNetwork& network,
                                     std::size_t num_partitions,
                                     std::uint64_t epsilon);

/// Loads the cached partitioning from `cache_dir` if present, otherwise
/// computes and saves it. `cache_hit` (optional) reports which happened.
Partitioning partition_with_cache(const ContactNetwork& network,
                                  std::size_t num_partitions,
                                  std::uint64_t epsilon,
                                  const std::string& cache_dir,
                                  bool* cache_hit = nullptr);

/// Materializes the per-rank binary chunk files each MPI process loads at
/// startup — the expensive step of the production pipeline ("partitioning
/// the network to binary chunks for California alone would take over one
/// hour"), which is why partitions are computed once and cached. Returns
/// the paths written, one per partition.
std::vector<std::string> write_partition_chunks(const ContactNetwork& network,
                                                const Partitioning& partitioning,
                                                const std::string& directory);

/// Loads one chunk file back: the contacts of partition `index`. The
/// header's count is checked against the file size before allocating; a
/// malformed file throws ConfigError.
std::vector<Contact> read_partition_chunk(const std::string& path);

/// True if every chunk file for this (network, partitioning) already
/// exists in `directory` (the nightly fast path).
bool partition_chunks_cached(const ContactNetwork& network,
                             const Partitioning& partitioning,
                             const std::string& directory);

/// Ghost list of partition `part_index`: the sorted, deduplicated set of
/// *remote* persons appearing as Contact::source on the partition's
/// in-edges. These are exactly the persons whose infectious status the
/// owning rank must learn from its neighbors each tick — the halo of the
/// partition. Cost is one scan of the partition's own edge range plus one
/// pass over the node ids, so each rank can compute its own list
/// independently.
std::vector<PersonId> compute_ghost_sources(const ContactNetwork& network,
                                            const Partitioning& partitioning,
                                            std::size_t part_index);

}  // namespace epi
