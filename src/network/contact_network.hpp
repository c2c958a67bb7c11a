// Contact network representation.
//
// The paper (§III) supplies each region's contact network as one CSV file;
// every edge carries the two person identifiers, the start time and
// duration of the interaction, and the (possibly asymmetric) activity
// context of each endpoint (home, work, shopping, other, school, college,
// religion). Because the partitioner must keep "all incoming edges of any
// given node in the same partition", the in-memory layout is a CSR over
// *incoming* edges: for each node v we store the contiguous list of
// contacts (u -> v). An undirected contact contributes one directed edge in
// each direction.
//
// The static network is immutable after finalize(); dynamic state (the
// per-edge active flag toggled by interventions) lives in the simulator,
// keyed by edge index, exactly as the paper describes ("each edge in the
// contact network can be turned on and off dynamically").
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace epi {

using PersonId = std::uint32_t;
using EdgeIndex = std::uint64_t;

/// Activity context of an endpoint at contact time (paper §III).
enum class ActivityType : std::uint8_t {
  kHome = 0,
  kWork = 1,
  kShopping = 2,
  kOther = 3,
  kSchool = 4,
  kCollege = 5,
  kReligion = 6,
};

inline constexpr int kActivityTypeCount = 7;

const char* activity_name(ActivityType a);
ActivityType activity_from_name(const std::string& name);

/// One directed contact (source -> target); target is implied by the CSR
/// bucket the edge lives in. 16 bytes, trivially copyable for binary I/O.
struct Contact {
  PersonId source = 0;
  std::uint16_t start_minute = 0;    // minute of day the interaction begins
  std::uint16_t duration_minutes = 0;
  std::uint8_t source_activity = 0;  // ActivityType of the source person
  std::uint8_t target_activity = 0;  // ActivityType of the target person
  std::uint16_t reserved = 0;        // keeps the struct 4-byte aligned
  float weight = 1.0f;               // edge weight w_e in the propensity law
};
static_assert(sizeof(Contact) == 16, "Contact must stay 16 bytes");

/// Immutable contact network in incoming-edge CSR form.
class ContactNetwork {
 public:
  ContactNetwork() = default;

  PersonId node_count() const { return node_count_; }
  /// Number of directed edges (= 2x undirected contacts).
  EdgeIndex edge_count() const { return static_cast<EdgeIndex>(contacts_.size()); }
  /// Number of undirected contacts.
  EdgeIndex contact_count() const { return edge_count() / 2; }

  /// [begin, end) range of incoming-edge indices for node v.
  EdgeIndex in_begin(PersonId v) const { return offsets_[v]; }
  EdgeIndex in_end(PersonId v) const { return offsets_[v + 1]; }
  std::uint64_t in_degree(PersonId v) const { return in_end(v) - in_begin(v); }

  const Contact& contact(EdgeIndex e) const { return contacts_[e]; }

  /// The node that edge e points at (owner of the CSR bucket).
  PersonId target_of(EdgeIndex e) const { return target_of(e, 0); }
  /// As above, searching forward from node `first`, which must be at or
  /// below the answer: a galloping search over the CSR offsets, so it
  /// costs O(log(answer - first)). Walking edges in ascending order with
  /// `first` = the previous answer (+ 1) costs O(1) per densely packed
  /// target.
  PersonId target_of(EdgeIndex e, PersonId first) const;

  // --- Out-edge transpose -----------------------------------------------
  // The CSR above is over *incoming* edges (grouped by target, the
  // partitioning invariant). The transpose answers the push direction the
  // frontier transmission kernel needs: "which edges does person u appear
  // on as Contact::source?". Built once at finalize/load; the entries of
  // each bucket are ascending EdgeIndex values into contact(), so walking
  // a bucket enumerates a source's out-edges in global edge order.

  std::uint64_t out_degree(PersonId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  /// Ascending edge indices on which u is the source.
  std::span<const EdgeIndex> out_edges_of(PersonId u) const {
    return std::span<const EdgeIndex>(out_edges_.data() + out_offsets_[u],
                                      out_offsets_[u + 1] - out_offsets_[u]);
  }

  /// Total duration-weighted contact minutes incident to v (incoming).
  double contact_minutes(PersonId v) const;

  /// A stable 64-bit content hash (used as the partition-cache and chunk
  /// file key). Computed on the first call and remembered; safe to call
  /// from several threads sharing one const network.
  std::uint64_t content_hash() const;

  // --- I/O --------------------------------------------------------------

  /// Writes the paper's CSV edge format:
  /// targetPID,sourcePID,targetActivity,sourceActivity,start,duration,weight
  void write_csv(std::ostream& out) const;
  static ContactNetwork read_csv(std::istream& in, PersonId node_count);

  /// Compact binary format ("due to its large size, [the network] is in
  /// csv or binary format"). Round-trips exactly. read_binary checks the
  /// header against the file size before allocating, and the offsets and
  /// edges before indexing with them; a malformed file throws ConfigError.
  void write_binary(const std::string& path) const;
  static ContactNetwork read_binary(const std::string& path);

  friend class ContactNetworkBuilder;

 private:
  /// content_hash() memo. Threads racing on the first call may each
  /// compute the hash, but all store the same value. A copy carries the
  /// memo with the edges it describes; a move leaves the source unhashed.
  class HashMemo {
   public:
    HashMemo() = default;
    HashMemo(const HashMemo& other) noexcept { copy_from(other); }
    HashMemo(HashMemo&& other) noexcept {
      copy_from(other);
      other.ready_.store(false, std::memory_order_relaxed);
    }
    HashMemo& operator=(const HashMemo& other) noexcept {
      copy_from(other);
      return *this;
    }
    HashMemo& operator=(HashMemo&& other) noexcept {
      copy_from(other);
      other.ready_.store(false, std::memory_order_relaxed);
      return *this;
    }

    template <typename Compute>
    std::uint64_t get(Compute compute) const {
      if (ready_.load(std::memory_order_acquire)) {
        return value_.load(std::memory_order_relaxed);
      }
      const std::uint64_t value = compute();
      value_.store(value, std::memory_order_relaxed);
      ready_.store(true, std::memory_order_release);
      return value;
    }

   private:
    void copy_from(const HashMemo& other) noexcept {
      const bool ready = other.ready_.load(std::memory_order_acquire);
      value_.store(other.value_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      ready_.store(ready, std::memory_order_release);
    }
    mutable std::atomic<bool> ready_{false};
    mutable std::atomic<std::uint64_t> value_{0};
  };

  /// Builds the out-edge transpose. Returns the index of the first edge
  /// whose source is not a node or whose activity is unknown (the
  /// transpose is then unusable), or edge_count() when every edge is
  /// well formed. Only read_binary can meet such an edge.
  EdgeIndex build_out_edges();

  PersonId node_count_ = 0;
  std::vector<EdgeIndex> offsets_;  // node_count_ + 1 entries
  std::vector<Contact> contacts_;  // grouped by target node
  // Transpose: out_edges_[out_offsets_[u] .. out_offsets_[u+1]) are the
  // ascending indices of the edges sourced at u.
  std::vector<EdgeIndex> out_offsets_;  // node_count_ + 1 entries
  std::vector<EdgeIndex> out_edges_;    // edge_count() entries
  HashMemo hash_;
};

/// Accumulates undirected contacts, then finalizes into CSR form.
class ContactNetworkBuilder {
 public:
  explicit ContactNetworkBuilder(PersonId node_count);

  /// Records an undirected contact between u and v. `u_activity` is what u
  /// was doing, `v_activity` what v was doing (they may differ: the grocer
  /// is working while the customer is shopping).
  void add_contact(PersonId u, PersonId v, std::uint16_t start_minute,
                   std::uint16_t duration_minutes, ActivityType u_activity,
                   ActivityType v_activity, float weight = 1.0f);

  std::uint64_t contact_count() const { return pending_.size(); }

  /// Builds the CSR network in O(nodes + contacts). The builder is
  /// consumed. Bucket order: contact i contributes u->v to v's bucket and
  /// v->u to u's bucket, and every bucket lists its edges in the order
  /// their contacts were added — the order a stable sort by target of the
  /// interleaved half-edges (u->v, v->u, u'->v', ...) gives.
  ContactNetwork finalize() &&;

 private:
  /// One undirected contact as added; 20 bytes.
  struct PendingContact {
    PersonId u;
    PersonId v;
    std::uint16_t start_minute;
    std::uint16_t duration_minutes;
    std::uint8_t u_activity;
    std::uint8_t v_activity;
    float weight;
  };
  PersonId node_count_;
  std::vector<PendingContact> pending_;
};

/// Per-context directed-edge counts plus degree summary — the numbers
/// behind Fig 6 and the synthetic-population validation tests.
struct NetworkStats {
  std::uint64_t nodes = 0;
  std::uint64_t directed_edges = 0;
  std::uint64_t undirected_contacts = 0;
  double mean_degree = 0.0;
  std::uint64_t max_degree = 0;
  std::uint64_t isolated_nodes = 0;
  std::uint64_t edges_by_context[kActivityTypeCount] = {};  // by target activity
};

NetworkStats compute_stats(const ContactNetwork& network);

}  // namespace epi
