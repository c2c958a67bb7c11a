#include "network/contact_network.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace epi {

namespace {
const char* const kActivityNames[kActivityTypeCount] = {
    "home", "work", "shopping", "other", "school", "college", "religion"};

// A counting scatter uses the offsets array itself as the write cursors.
// Call open_buckets when offsets[b + 1] holds the size of bucket b; then
// offsets[b] is bucket b's first slot, and the caller writes each element
// at offsets[b]++. That leaves offsets[b] at bucket b's end, which is
// bucket b + 1's start, so close_buckets shifts the array back by one.
void open_buckets(std::vector<EdgeIndex>& offsets) {
  for (std::size_t b = 1; b < offsets.size(); ++b) {
    offsets[b] += offsets[b - 1];
  }
}

void close_buckets(std::vector<EdgeIndex>& offsets) {
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets.front() = 0;
}
}  // namespace

const char* activity_name(ActivityType a) {
  const auto i = static_cast<std::size_t>(a);
  EPI_REQUIRE(i < kActivityTypeCount, "invalid ActivityType " << i);
  return kActivityNames[i];
}

ActivityType activity_from_name(const std::string& name) {
  for (int i = 0; i < kActivityTypeCount; ++i) {
    if (name == kActivityNames[i]) return static_cast<ActivityType>(i);
  }
  throw ConfigError("unknown activity type: " + name);
}

EdgeIndex ContactNetwork::build_out_edges() {
  // Counting sort of edge indices by source; visiting e in ascending order
  // leaves every bucket ascending, which the frontier kernel relies on to
  // reproduce the in-CSR scan's edge order exactly. The counting pass also
  // vets each edge, so a loaded file costs no extra pass; it is bound on
  // its scattered increments, so the checks stay a few instructions.
  out_offsets_.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  const PersonId nodes = node_count_;
  EdgeIndex* const out_degree = out_offsets_.data() + 1;
  const Contact* const first = contacts_.data();
  const Contact* const last = first + contacts_.size();
  for (const Contact* c = first; c != last; ++c) {
    if (c->source >= nodes || c->source_activity >= kActivityTypeCount ||
        c->target_activity >= kActivityTypeCount) [[unlikely]] {
      return static_cast<EdgeIndex>(c - first);
    }
    ++out_degree[c->source];
  }
  open_buckets(out_offsets_);
  out_edges_.resize(contacts_.size());
  for (EdgeIndex e = 0; e < contacts_.size(); ++e) {
    out_edges_[out_offsets_[contacts_[e].source]++] = e;
  }
  close_buckets(out_offsets_);
  return edge_count();
}

PersonId ContactNetwork::target_of(EdgeIndex e) const {
  EPI_REQUIRE(e < edge_count(), "edge index out of range");
  // Binary search the CSR offsets for the bucket containing e.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), e);
  return static_cast<PersonId>(it - offsets_.begin() - 1);
}

double ContactNetwork::contact_minutes(PersonId v) const {
  double total = 0.0;
  for (EdgeIndex e = in_begin(v); e < in_end(v); ++e) {
    total += contacts_[e].duration_minutes;
  }
  return total;
}

std::uint64_t ContactNetwork::content_hash() const {
  // FNV-1a over the raw edge array plus the node count; stable across
  // runs because finalize() orders edges deterministically.
  return hash_.get([this] {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const void* data, std::size_t size) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
      }
    };
    mix(&node_count_, sizeof(node_count_));
    if (!contacts_.empty()) {
      mix(contacts_.data(), contacts_.size() * sizeof(Contact));
    }
    return h;
  });
}

void ContactNetwork::write_csv(std::ostream& out) const {
  out << "targetPID,sourcePID,targetActivity,sourceActivity,start,duration,weight\n";
  for (PersonId v = 0; v < node_count_; ++v) {
    for (EdgeIndex e = in_begin(v); e < in_end(v); ++e) {
      const Contact& c = contacts_[e];
      out << v << ',' << c.source << ','
          << kActivityNames[c.target_activity] << ','
          << kActivityNames[c.source_activity] << ',' << c.start_minute << ','
          << c.duration_minutes << ',' << c.weight << '\n';
    }
  }
}

ContactNetwork ContactNetwork::read_csv(std::istream& in, PersonId node_count) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const CsvTable table = parse_csv(buffer.str());
  // The CSV carries each directed edge explicitly; rebuild CSR directly
  // instead of via the builder (which would double them).
  std::vector<std::pair<PersonId, Contact>> edges;
  edges.reserve(table.row_count());
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    const auto target = static_cast<PersonId>(table.cell_int(row, "targetPID"));
    EPI_REQUIRE(target < node_count, "targetPID out of range: " << target);
    Contact c;
    c.source = static_cast<PersonId>(table.cell_int(row, "sourcePID"));
    EPI_REQUIRE(c.source < node_count, "sourcePID out of range: " << c.source);
    c.target_activity = static_cast<std::uint8_t>(
        activity_from_name(table.cell(row, table.column("targetActivity"))));
    c.source_activity = static_cast<std::uint8_t>(
        activity_from_name(table.cell(row, table.column("sourceActivity"))));
    c.start_minute = static_cast<std::uint16_t>(table.cell_int(row, "start"));
    c.duration_minutes =
        static_cast<std::uint16_t>(table.cell_int(row, "duration"));
    c.weight = static_cast<float>(table.cell_double(row, "weight"));
    edges.emplace_back(target, c);
  }
  // Counting scatter: each bucket keeps its rows in file order.
  ContactNetwork net;
  net.node_count_ = node_count;
  net.offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
  for (const auto& [target, contact] : edges) {
    ++net.offsets_[static_cast<std::size_t>(target) + 1];
  }
  open_buckets(net.offsets_);
  net.contacts_.resize(edges.size());
  for (const auto& [target, contact] : edges) {
    net.contacts_[net.offsets_[target]++] = contact;
  }
  close_buckets(net.offsets_);
  net.build_out_edges();
  return net;
}

namespace {
constexpr std::uint64_t kBinaryMagic = 0x45504948495052ULL;  // "EPIHIPR"
constexpr std::uint64_t kBinaryHeaderBytes = 3 * sizeof(std::uint64_t);

[[noreturn]] void reject_binary(const std::string& path,
                                const std::string& problem) {
  throw ConfigError("invalid network binary " + path + ": " + problem);
}
}  // namespace

void ContactNetwork::write_binary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write network binary: " + path);
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t nodes = node_count_;
  const std::uint64_t edges = contacts_.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&nodes), sizeof(nodes));
  out.write(reinterpret_cast<const char*>(&edges), sizeof(edges));
  out.write(reinterpret_cast<const char*>(offsets_.data()),
            static_cast<std::streamsize>(offsets_.size() * sizeof(EdgeIndex)));
  out.write(reinterpret_cast<const char*>(contacts_.data()),
            static_cast<std::streamsize>(contacts_.size() * sizeof(Contact)));
  EPI_REQUIRE(out.good(), "short write to " << path);
}

ContactNetwork ContactNetwork::read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read network binary: " + path);
  std::uint64_t magic = 0, nodes = 0, edges = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&nodes), sizeof(nodes));
  in.read(reinterpret_cast<char*>(&edges), sizeof(edges));
  if (!in.good() || magic != kBinaryMagic) {
    reject_binary(path, "not an EpiScale network binary");
  }
  // Every count is checked against the file before it sizes an allocation.
  if (nodes > std::numeric_limits<PersonId>::max()) {
    reject_binary(path, "node count " + std::to_string(nodes) +
                            " does not fit a PersonId");
  }
  const std::uint64_t file_bytes = std::filesystem::file_size(path);
  const std::uint64_t offset_bytes = (nodes + 1) * sizeof(EdgeIndex);
  const std::uint64_t fixed_bytes = kBinaryHeaderBytes + offset_bytes;
  if (file_bytes < fixed_bytes ||
      (file_bytes - fixed_bytes) % sizeof(Contact) != 0 ||
      (file_bytes - fixed_bytes) / sizeof(Contact) != edges) {
    reject_binary(path, "header declares " + std::to_string(nodes) +
                            " nodes and " + std::to_string(edges) +
                            " edges, but the file holds " +
                            std::to_string(file_bytes) + " bytes");
  }
  ContactNetwork net;
  net.node_count_ = static_cast<PersonId>(nodes);
  net.offsets_.resize(nodes + 1);
  net.contacts_.resize(edges);
  in.read(reinterpret_cast<char*>(net.offsets_.data()),
          static_cast<std::streamsize>(offset_bytes));
  in.read(reinterpret_cast<char*>(net.contacts_.data()),
          static_cast<std::streamsize>(edges * sizeof(Contact)));
  if (!in.good()) reject_binary(path, "short read");
  if (net.offsets_.front() != 0 || net.offsets_.back() != edges) {
    reject_binary(path, "offsets do not run from 0 to the edge count");
  }
  for (std::size_t v = 0; v < nodes; ++v) {
    if (net.offsets_[v + 1] < net.offsets_[v]) {
      reject_binary(path, "offsets decrease at node " + std::to_string(v));
    }
  }
  const EdgeIndex bad = net.build_out_edges();
  if (bad != edges) {
    const PersonId source = net.contacts_[bad].source;
    reject_binary(path, "edge " + std::to_string(bad) +
                            (source >= nodes
                                 ? " has source " + std::to_string(source) +
                                       " but there are " +
                                       std::to_string(nodes) + " nodes"
                                 : " has an unknown activity"));
  }
  return net;
}

ContactNetworkBuilder::ContactNetworkBuilder(PersonId node_count)
    : node_count_(node_count) {}

void ContactNetworkBuilder::add_contact(PersonId u, PersonId v,
                                        std::uint16_t start_minute,
                                        std::uint16_t duration_minutes,
                                        ActivityType u_activity,
                                        ActivityType v_activity, float weight) {
  EPI_REQUIRE(u < node_count_ && v < node_count_,
              "contact endpoint out of range: " << u << ", " << v);
  EPI_REQUIRE(u != v, "self-contact not allowed: " << u);
  pending_.push_back({u, v, start_minute, duration_minutes,
                      static_cast<std::uint8_t>(u_activity),
                      static_cast<std::uint8_t>(v_activity), weight});
}

ContactNetwork ContactNetworkBuilder::finalize() && {
  // Counting scatter: size every target's bucket, then write each
  // contact's two directed edges at their buckets' next slots in insertion
  // order — stable by construction, so no sort is needed.
  ContactNetwork net;
  net.node_count_ = node_count_;
  net.offsets_.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  for (const PendingContact& p : pending_) {
    ++net.offsets_[static_cast<std::size_t>(p.v) + 1];
    ++net.offsets_[static_cast<std::size_t>(p.u) + 1];
  }
  open_buckets(net.offsets_);
  net.contacts_.resize(2 * pending_.size());
  for (const PendingContact& p : pending_) {
    Contact to_v;
    to_v.source = p.u;
    to_v.start_minute = p.start_minute;
    to_v.duration_minutes = p.duration_minutes;
    to_v.source_activity = p.u_activity;
    to_v.target_activity = p.v_activity;
    to_v.weight = p.weight;
    net.contacts_[net.offsets_[p.v]++] = to_v;

    Contact to_u = to_v;
    to_u.source = p.v;
    to_u.source_activity = p.v_activity;
    to_u.target_activity = p.u_activity;
    net.contacts_[net.offsets_[p.u]++] = to_u;
  }
  close_buckets(net.offsets_);
  // Release the contacts before the transpose allocates.
  std::vector<PendingContact>().swap(pending_);
  net.build_out_edges();
  return net;
}

NetworkStats compute_stats(const ContactNetwork& network) {
  NetworkStats stats;
  stats.nodes = network.node_count();
  stats.directed_edges = network.edge_count();
  stats.undirected_contacts = network.contact_count();
  std::uint64_t degree_sum = 0;
  for (PersonId v = 0; v < network.node_count(); ++v) {
    const std::uint64_t d = network.in_degree(v);
    degree_sum += d;
    stats.max_degree = std::max(stats.max_degree, d);
    if (d == 0) ++stats.isolated_nodes;
  }
  stats.mean_degree = stats.nodes == 0
                          ? 0.0
                          : static_cast<double>(degree_sum) /
                                static_cast<double>(stats.nodes);
  for (EdgeIndex e = 0; e < network.edge_count(); ++e) {
    ++stats.edges_by_context[network.contact(e).target_activity];
  }
  return stats;
}

}  // namespace epi
