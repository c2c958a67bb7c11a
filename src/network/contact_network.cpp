#include "network/contact_network.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace epi {

namespace {
const char* const kActivityNames[kActivityTypeCount] = {
    "home", "work", "shopping", "other", "school", "college", "religion"};
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
  // A stable scatter of edge indices by source, so every bucket lists its
  // edges ascending, which the frontier kernel relies on to reproduce the
  // in-CSR scan's edge order exactly. An edge whose source is not a node or
  // whose activity is unknown maps past the last bucket, so the scatter's
  // counting pass vets every edge and a loaded file costs no extra pass.
  const Contact* const contacts = contacts_.data();
  const PersonId nodes = node_count_;
  out_edges_.resize(contacts_.size());
  EdgeIndex* const out = out_edges_.data();
  return stable_scatter(
      contacts_.size(), nodes, workers_for(contacts_.size(), kScatterGrain),
      [contacts, nodes](std::size_t e) -> std::size_t {
        const Contact& c = contacts[e];
        const bool known = c.source_activity < kActivityTypeCount &&
                           c.target_activity < kActivityTypeCount;
        return known ? c.source : nodes;
      },
      [out](std::size_t e, std::uint64_t slot) { out[slot] = e; },
      out_offsets_);
}

PersonId ContactNetwork::target_of(EdgeIndex e, PersonId first) const {
  EPI_REQUIRE(e < edge_count(), "edge index out of range");
  EPI_REQUIRE(first < node_count_ && offsets_[first] <= e,
              "target search for edge " << e << " starts past it, at node "
                                        << first);
  // Gallop: double the stride until an offset passes e. Then the bucket
  // holding e starts in [lo, hi), and offsets_[node_count_] = edge_count()
  // bounds the last stride.
  std::size_t lo = first;
  std::size_t hi = lo + 1;
  for (std::size_t stride = 1; hi < node_count_ && offsets_[hi] <= e;
       hi = lo + stride) {
    lo = hi;
    stride *= 2;
  }
  hi = std::min<std::size_t>(hi, node_count_);
  const auto it =
      std::upper_bound(offsets_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                       offsets_.begin() + static_cast<std::ptrdiff_t>(hi), e);
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

namespace {
/// Reads an integer cell of the contact CSV and checks it is in [lo, hi]
/// before it is narrowed.
std::int64_t csv_int_in(const CsvTable& table, std::size_t row,
                        std::string_view column, std::int64_t lo,
                        std::int64_t hi) {
  const std::int64_t value = table.cell_int(row, column);
  if (value < lo || value > hi) {
    throw ConfigError("contact CSV data row " + std::to_string(row + 1) +
                      ", column " + std::string(column) + ": " +
                      std::to_string(value) + " is outside [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}
}  // namespace

ContactNetwork ContactNetwork::read_csv(std::istream& in, PersonId node_count) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const CsvTable table = parse_csv(buffer.str());
  // The CSV carries each directed edge explicitly; rebuild CSR directly
  // instead of via the builder (which would double them).
  const std::int64_t last_person = static_cast<std::int64_t>(node_count) - 1;
  constexpr std::int64_t kMaxMinutes =
      std::numeric_limits<std::uint16_t>::max();
  std::vector<std::pair<PersonId, Contact>> edges;
  edges.reserve(table.row_count());
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    const auto target = static_cast<PersonId>(
        csv_int_in(table, row, "targetPID", 0, last_person));
    Contact c;
    c.source = static_cast<PersonId>(
        csv_int_in(table, row, "sourcePID", 0, last_person));
    c.target_activity = static_cast<std::uint8_t>(
        activity_from_name(table.cell(row, table.column("targetActivity"))));
    c.source_activity = static_cast<std::uint8_t>(
        activity_from_name(table.cell(row, table.column("sourceActivity"))));
    c.start_minute = static_cast<std::uint16_t>(
        csv_int_in(table, row, "start", 0, kMaxMinutes));
    c.duration_minutes = static_cast<std::uint16_t>(
        csv_int_in(table, row, "duration", 0, kMaxMinutes));
    const double weight = table.cell_double(row, "weight");
    if (!(weight >= 0.0 && weight <= std::numeric_limits<float>::max())) {
      throw ConfigError("contact CSV data row " + std::to_string(row + 1) +
                        ", column weight: " + table.cell(row, "weight") +
                        " is not a finite non-negative float");
    }
    c.weight = static_cast<float>(weight);
    edges.emplace_back(target, c);
  }
  // Each bucket keeps its rows in file order.
  ContactNetwork net;
  net.node_count_ = node_count;
  net.contacts_.resize(edges.size());
  Contact* const out = net.contacts_.data();
  stable_scatter(
      edges.size(), node_count, workers_for(edges.size(), kScatterGrain),
      [&edges](std::size_t r) -> std::size_t { return edges[r].first; },
      [&edges, out](std::size_t r, std::uint64_t slot) {
        out[slot] = edges[r].second;
      },
      net.offsets_);
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
  const std::uint64_t slot = count_ & (kBlockSize - 1);
  if (slot == 0) {
    blocks_.push_back(
        std::make_unique_for_overwrite<PendingContact[]>(kBlockSize));
  }
  blocks_.back()[slot] = {u, v, start_minute, duration_minutes,
                          static_cast<std::uint8_t>(u_activity),
                          static_cast<std::uint8_t>(v_activity), weight};
  ++count_;
}

ContactNetwork ContactNetworkBuilder::finalize() && {
  // Half-edge 2i is contact i's u->v, in v's bucket, and 2i + 1 its v->u,
  // in u's bucket. The stable scatter keeps that interleaved order inside
  // every bucket, so no sort is needed.
  ContactNetwork net;
  net.node_count_ = node_count_;
  const std::uint64_t half_edges = 2 * count_;
  net.contacts_.resize(half_edges);
  Contact* const out = net.contacts_.data();
  const auto pending = [this](std::uint64_t j) -> const PendingContact& {
    const std::uint64_t i = j >> 1;
    return blocks_[i / kBlockSize][i & (kBlockSize - 1)];
  };
  stable_scatter(
      half_edges, node_count_, workers_for(half_edges, kScatterGrain),
      [&pending](std::size_t j) -> std::size_t {
        const PendingContact& p = pending(j);
        return (j & 1) != 0 ? p.u : p.v;
      },
      [&pending, out](std::size_t j, std::uint64_t slot) {
        const PendingContact& p = pending(j);
        const bool to_u = (j & 1) != 0;
        Contact c;
        c.source = to_u ? p.v : p.u;
        c.start_minute = p.start_minute;
        c.duration_minutes = p.duration_minutes;
        c.source_activity = to_u ? p.v_activity : p.u_activity;
        c.target_activity = to_u ? p.u_activity : p.v_activity;
        c.weight = p.weight;
        out[slot] = c;
      },
      net.offsets_);
  // Release the contacts before the transpose allocates.
  std::vector<std::unique_ptr<PendingContact[]>>().swap(blocks_);
  count_ = 0;
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
