#include "network/contact_network.hpp"
#include "network/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <set>
#include <sstream>
#include <thread>

#include "synthpop/generator.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace epi {
namespace {

ContactNetwork make_line_network(PersonId n) {
  // 0-1-2-...-(n-1) path with varied contexts.
  ContactNetworkBuilder builder(n);
  for (PersonId i = 0; i + 1 < n; ++i) {
    builder.add_contact(i, i + 1, 540, 60,
                        i % 2 == 0 ? ActivityType::kWork : ActivityType::kHome,
                        ActivityType::kShopping, 1.0f + static_cast<float>(i));
  }
  return std::move(builder).finalize();
}

/// One directed edge with the bucket it belongs to.
struct HalfEdge {
  PersonId target;
  Contact contact;
};

/// A seeded random multigraph on 200 nodes: repeated pairs, both endpoint
/// orders, all seven contexts, and nodes 180..199 isolated. Returns the
/// builder's network and the half-edges in insertion order (u->v, then
/// v->u, contact by contact).
std::pair<ContactNetwork, std::vector<HalfEdge>> random_multigraph(
    std::uint64_t seed) {
  constexpr PersonId kNodes = 200;
  constexpr PersonId kLinked = 180;
  Rng rng(seed);
  ContactNetworkBuilder builder(kNodes);
  std::vector<HalfEdge> half_edges;
  auto add = [&](PersonId u, PersonId v) {
    Contact to_v;
    to_v.source = u;
    to_v.start_minute = static_cast<std::uint16_t>(rng.uniform_index(1440));
    to_v.duration_minutes = static_cast<std::uint16_t>(1 + rng.uniform_index(600));
    to_v.source_activity =
        static_cast<std::uint8_t>(rng.uniform_index(kActivityTypeCount));
    to_v.target_activity =
        static_cast<std::uint8_t>(rng.uniform_index(kActivityTypeCount));
    to_v.weight = 0.25f * static_cast<float>(1 + rng.uniform_index(8));
    builder.add_contact(u, v, to_v.start_minute, to_v.duration_minutes,
                        static_cast<ActivityType>(to_v.source_activity),
                        static_cast<ActivityType>(to_v.target_activity),
                        to_v.weight);
    Contact to_u = to_v;
    to_u.source = v;
    std::swap(to_u.source_activity, to_u.target_activity);
    half_edges.push_back({v, to_v});
    half_edges.push_back({u, to_u});
  };
  for (int i = 0; i < 1500; ++i) {
    const auto u = static_cast<PersonId>(rng.uniform_index(kLinked));
    const auto v = static_cast<PersonId>(rng.uniform_index(kLinked));
    if (u == v) continue;
    add(u, v);
    if (i % 7 == 0) add(v, u);  // the same pair again, endpoints swapped
    if (i % 11 == 0) add(u, v);  // the same pair again, same order
  }
  return {std::move(builder).finalize(), std::move(half_edges)};
}

/// The bucket order the CSR promises, computed the way finalize() did
/// before its counting scatter: a stable sort of the half-edges by target.
std::vector<HalfEdge> stable_reference(std::vector<HalfEdge> edges) {
  std::stable_sort(edges.begin(), edges.end(),
                   [](const HalfEdge& a, const HalfEdge& b) {
                     return a.target < b.target;
                   });
  return edges;
}

void expect_csr_equals(const ContactNetwork& net,
                       const std::vector<HalfEdge>& expected) {
  ASSERT_EQ(net.edge_count(), expected.size());
  for (EdgeIndex e = 0; e < net.edge_count(); ++e) {
    EXPECT_EQ(net.target_of(e), expected[e].target) << "edge " << e;
    EXPECT_EQ(std::memcmp(&net.contact(e), &expected[e].contact,
                          sizeof(Contact)),
              0)
        << "edge " << e;
  }
}

TEST(ActivityType, NamesRoundTrip) {
  for (int i = 0; i < kActivityTypeCount; ++i) {
    const auto type = static_cast<ActivityType>(i);
    EXPECT_EQ(activity_from_name(activity_name(type)), type);
  }
  EXPECT_THROW(activity_from_name("gym"), ConfigError);
}

TEST(ContactNetwork, BuilderCreatesBothDirections) {
  ContactNetworkBuilder builder(3);
  builder.add_contact(0, 2, 100, 30, ActivityType::kWork,
                      ActivityType::kShopping);
  const ContactNetwork net = std::move(builder).finalize();
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.edge_count(), 2u);
  EXPECT_EQ(net.contact_count(), 1u);
  // Edge into 2 comes from 0 and carries 0's activity as source context.
  ASSERT_EQ(net.in_degree(2), 1u);
  const Contact& into2 = net.contact(net.in_begin(2));
  EXPECT_EQ(into2.source, 0u);
  EXPECT_EQ(into2.source_activity,
            static_cast<std::uint8_t>(ActivityType::kWork));
  EXPECT_EQ(into2.target_activity,
            static_cast<std::uint8_t>(ActivityType::kShopping));
  // Mirror edge into 0 swaps the contexts.
  const Contact& into0 = net.contact(net.in_begin(0));
  EXPECT_EQ(into0.source, 2u);
  EXPECT_EQ(into0.source_activity,
            static_cast<std::uint8_t>(ActivityType::kShopping));
  EXPECT_EQ(into0.target_activity,
            static_cast<std::uint8_t>(ActivityType::kWork));
}

TEST(ContactNetwork, RejectsInvalidContacts) {
  ContactNetworkBuilder builder(2);
  EXPECT_THROW(builder.add_contact(0, 0, 0, 10, ActivityType::kHome,
                                   ActivityType::kHome),
              Error);
  EXPECT_THROW(builder.add_contact(0, 5, 0, 10, ActivityType::kHome,
                                   ActivityType::kHome),
              Error);
}

TEST(ContactNetwork, CsrDegreesConsistent) {
  const ContactNetwork net = make_line_network(10);
  EXPECT_EQ(net.edge_count(), 18u);  // 9 undirected contacts
  EXPECT_EQ(net.in_degree(0), 1u);
  EXPECT_EQ(net.in_degree(5), 2u);
  std::uint64_t total = 0;
  for (PersonId v = 0; v < net.node_count(); ++v) total += net.in_degree(v);
  EXPECT_EQ(total, net.edge_count());
}

TEST(ContactNetwork, TargetOfInvertsCsr) {
  const ContactNetwork line = make_line_network(8);
  for (PersonId v = 0; v < line.node_count(); ++v) {
    for (EdgeIndex e = line.in_begin(v); e < line.in_end(v); ++e) {
      EXPECT_EQ(line.target_of(e), v);
    }
  }

  // The forward search from every start at or below the target, on a
  // multigraph whose nodes are spread out so that runs of zero-degree
  // nodes (one or four long) sit between the targets, not only at the
  // end.
  const auto [dense, half_edges] = random_multigraph(31);
  const auto spread = [](PersonId u) { return 4 * u + u % 3; };
  ContactNetworkBuilder builder(spread(dense.node_count()));
  for (std::size_t i = 0; i < half_edges.size(); i += 2) {
    const Contact& c = half_edges[i].contact;
    builder.add_contact(spread(c.source), spread(half_edges[i].target),
                        c.start_minute, c.duration_minutes,
                        static_cast<ActivityType>(c.source_activity),
                        static_cast<ActivityType>(c.target_activity), c.weight);
  }
  const ContactNetwork net = std::move(builder).finalize();
  ASSERT_EQ(net.edge_count(), dense.edge_count());
  std::uint64_t gaps = 0, checks = 0;
  for (PersonId v = 0; v < net.node_count(); ++v) {
    if (net.in_degree(v) == 0) {
      gaps += v > 0 && v + 1 < net.node_count() && net.in_degree(v - 1) > 0;
      continue;
    }
    for (EdgeIndex e = net.in_begin(v); e < net.in_end(v); ++e) {
      ASSERT_EQ(net.target_of(e), v) << "edge " << e;
      for (PersonId first = 0; first <= v; ++first) {
        ++checks;
        if (net.target_of(e, first) != v) {
          ADD_FAILURE() << "edge " << e << " from node " << first << " found "
                        << net.target_of(e, first) << ", not " << v;
        }
      }
      EXPECT_THROW(net.target_of(e, v + 1), Error);
    }
  }
  EXPECT_GT(gaps, 100u);
  EXPECT_GT(checks, 1'000'000u);
  EXPECT_THROW(net.target_of(net.edge_count(), 0), Error);
}

TEST(ContactNetwork, ContactMinutes) {
  const ContactNetwork net = make_line_network(3);
  EXPECT_DOUBLE_EQ(net.contact_minutes(1), 120.0);  // two 60-minute edges
}

TEST(ContactNetwork, ContentHashStableAndSensitive) {
  const ContactNetwork a = make_line_network(6);
  const ContactNetwork b = make_line_network(6);
  const ContactNetwork c = make_line_network(7);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_NE(a.content_hash(), c.content_hash());
}

TEST(ContactNetwork, FinalizeMatchesStableSortOrder) {
  const auto [net, half_edges] = random_multigraph(2020);
  // The input covers what the order contract has to survive.
  std::set<std::uint8_t> contexts;
  bool ascending = false, descending = false;
  for (std::size_t i = 0; i < half_edges.size(); i += 2) {
    contexts.insert(half_edges[i].contact.source_activity);
    ascending |= half_edges[i].contact.source < half_edges[i].target;
    descending |= half_edges[i].contact.source > half_edges[i].target;
  }
  EXPECT_EQ(contexts.size(), static_cast<std::size_t>(kActivityTypeCount));
  EXPECT_TRUE(ascending && descending);
  EXPECT_EQ(compute_stats(net).isolated_nodes, 20u);
  expect_csr_equals(net, stable_reference(half_edges));
}

TEST(ContactNetwork, ReadCsvKeepsFileOrderWithinBuckets) {
  auto [net, half_edges] = random_multigraph(7);
  Rng rng(8);
  rng.shuffle(half_edges.begin(), half_edges.end());
  std::stringstream csv;
  csv << "targetPID,sourcePID,targetActivity,sourceActivity,start,duration,"
         "weight\n";
  for (const HalfEdge& h : half_edges) {
    const Contact& c = h.contact;
    csv << h.target << ',' << c.source << ','
        << activity_name(static_cast<ActivityType>(c.target_activity)) << ','
        << activity_name(static_cast<ActivityType>(c.source_activity)) << ','
        << c.start_minute << ',' << c.duration_minutes << ',' << c.weight
        << '\n';
  }
  expect_csr_equals(ContactNetwork::read_csv(csv, net.node_count()),
                    stable_reference(half_edges));
}

// --- The stable bucket scatter at forced worker counts -----------------

constexpr std::size_t kForcedWorkers[] = {1, 2, 3, 4, 7};

/// Scatters `buckets_of` (entry j goes to bucket buckets_of[j]) on
/// `workers` threads; returns the entries in output order.
std::vector<std::size_t> scatter_entries(
    const std::vector<std::size_t>& buckets_of, std::size_t buckets,
    std::size_t workers, std::vector<std::uint64_t>& offsets) {
  std::vector<std::size_t> out(buckets_of.size(), buckets_of.size());
  const std::size_t bad = stable_scatter(
      buckets_of.size(), buckets, workers,
      [&](std::size_t j) { return buckets_of[j]; },
      [&](std::size_t j, std::uint64_t slot) { out[slot] = j; }, offsets);
  EXPECT_EQ(bad, buckets_of.size());
  return out;
}

/// Checks the scatter of `buckets_of` against a stable sort by bucket at
/// every forced worker count.
void expect_stable_scatter(const std::vector<std::size_t>& buckets_of,
                           std::size_t buckets) {
  std::vector<std::size_t> expected(buckets_of.size());
  for (std::size_t j = 0; j < expected.size(); ++j) expected[j] = j;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return buckets_of[a] < buckets_of[b];
                   });
  std::vector<std::uint64_t> expected_offsets(buckets + 1, 0);
  for (const std::size_t b : buckets_of) ++expected_offsets[b + 1];
  for (std::size_t b = 0; b < buckets; ++b) {
    expected_offsets[b + 1] += expected_offsets[b];
  }
  for (const std::size_t workers : kForcedWorkers) {
    std::vector<std::uint64_t> offsets;
    EXPECT_EQ(scatter_entries(buckets_of, buckets, workers, offsets), expected)
        << workers << " workers";
    EXPECT_EQ(offsets, expected_offsets) << workers << " workers";
  }
}

TEST(StableScatter, NoEntries) {
  expect_stable_scatter({}, 0);
  expect_stable_scatter({}, 5);
}

TEST(StableScatter, FewerEntriesThanWorkers) {
  expect_stable_scatter({2, 0, 2}, 5);
}

TEST(StableScatter, EmptyBucketsAndHubBucket) {
  Rng rng(11);
  std::vector<std::size_t> spread, hub;
  for (int j = 0; j < 5000; ++j) {
    // Buckets 40..59 and 90..99 stay empty.
    const std::size_t b = rng.uniform_index(70);
    spread.push_back(b < 40 ? b : b + 20);
    // One hub bucket holds about 90% of the entries.
    hub.push_back(rng.bernoulli(0.9) ? 7 : rng.uniform_index(100));
  }
  expect_stable_scatter(spread, 100);
  expect_stable_scatter(hub, 100);
}

TEST(StableScatter, ReportsFirstEntryOutsideTheBuckets) {
  for (const std::size_t workers : kForcedWorkers) {
    std::vector<std::uint64_t> offsets;
    bool placed = false;
    const std::vector<std::size_t> buckets_of = {0, 1, 2, 9, 1, 9, 0, 2};
    EXPECT_EQ(stable_scatter(
                  buckets_of.size(), 3, workers,
                  [&](std::size_t j) { return buckets_of[j]; },
                  [&](std::size_t, std::uint64_t) { placed = true; }, offsets),
              3u)
        << workers << " workers";
    EXPECT_FALSE(placed);
  }
}

TEST(StableScatter, FinalizeOrderAtForcedWorkerCounts) {
  // The builder's half-edge scatter, run at worker counts the machine
  // would not pick for 200 nodes, gives finalize()'s CSR exactly.
  const auto [net, half_edges] = random_multigraph(2021);
  std::vector<std::size_t> targets;
  for (const HalfEdge& h : half_edges) targets.push_back(h.target);
  for (const std::size_t workers : kForcedWorkers) {
    std::vector<std::uint64_t> offsets;
    const std::vector<std::size_t> order =
        scatter_entries(targets, net.node_count(), workers, offsets);
    ASSERT_EQ(order.size(), net.edge_count());
    for (EdgeIndex e = 0; e < net.edge_count(); ++e) {
      EXPECT_EQ(std::memcmp(&net.contact(e), &half_edges[order[e]].contact,
                            sizeof(Contact)),
                0)
          << workers << " workers, edge " << e;
    }
    for (PersonId v = 0; v <= net.node_count(); ++v) {
      EXPECT_EQ(offsets[v], v < net.node_count() ? net.in_begin(v)
                                                 : net.edge_count());
    }
  }
}

TEST(StableScatter, TransposeOfAsymmetricBinaryAtForcedWorkerCounts) {
  // One-way edges, a hub source and isolated nodes, loaded through
  // read_binary: its transpose, and the scatter at every forced worker
  // count, list each source's edges ascending.
  constexpr PersonId kNodes = 300;
  Rng rng(5);
  std::stringstream csv;
  csv << "targetPID,sourcePID,targetActivity,sourceActivity,start,duration,"
         "weight\n";
  for (int i = 0; i < 4000; ++i) {
    const auto target = static_cast<PersonId>(rng.uniform_index(kNodes - 20));
    const auto source =
        rng.bernoulli(0.6)
            ? PersonId{3}
            : static_cast<PersonId>(rng.uniform_index(kNodes - 20));
    csv << target << ',' << source << ",work,shopping,"
        << rng.uniform_index(1440) << ",30,1\n";
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "episcale_test_asym.bin")
          .string();
  ContactNetwork::read_csv(csv, kNodes).write_binary(path);
  const ContactNetwork net = ContactNetwork::read_binary(path);
  std::filesystem::remove(path);
  std::vector<std::size_t> sources;
  for (EdgeIndex e = 0; e < net.edge_count(); ++e) {
    sources.push_back(net.contact(e).source);
  }
  std::vector<EdgeIndex> loaded;
  for (PersonId u = 0; u < kNodes; ++u) {
    const auto edges = net.out_edges_of(u);
    loaded.insert(loaded.end(), edges.begin(), edges.end());
  }
  expect_stable_scatter(sources, kNodes);
  std::vector<std::uint64_t> offsets;
  const std::vector<std::size_t> order =
      scatter_entries(sources, kNodes, 4, offsets);
  EXPECT_TRUE(std::equal(order.begin(), order.end(), loaded.begin(),
                         loaded.end()));
  EXPECT_GT(net.out_degree(3), net.edge_count() / 2);
  EXPECT_EQ(net.out_degree(kNodes - 1), 0u);
}

TEST(ContactNetwork, ContentHashMemoSafeAcrossThreads) {
  const ContactNetwork shared = random_multigraph(3).first;
  const std::uint64_t expected = random_multigraph(3).first.content_hash();
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(i)] = shared.content_hash();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t h : seen) EXPECT_EQ(h, expected);
}

TEST(ContactNetwork, ContentHashFollowsCopiesAndMoves) {
  const std::uint64_t expected = make_line_network(9).content_hash();
  ContactNetwork hashed = make_line_network(9);
  const ContactNetwork unhashed_copy = hashed;
  EXPECT_EQ(hashed.content_hash(), expected);
  const ContactNetwork hashed_copy = hashed;
  EXPECT_EQ(hashed_copy.content_hash(), expected);
  EXPECT_EQ(unhashed_copy.content_hash(), expected);
  const ContactNetwork moved = std::move(hashed);
  EXPECT_EQ(moved.content_hash(), expected);
  ContactNetwork assigned = make_line_network(4);
  EXPECT_NE(assigned.content_hash(), expected);
  assigned = hashed_copy;
  EXPECT_EQ(assigned.content_hash(), expected);
  ContactNetwork move_assigned = make_line_network(4);
  EXPECT_NE(move_assigned.content_hash(), expected);
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned.content_hash(), expected);
}

TEST(ContactNetwork, CsvRoundTrip) {
  const ContactNetwork net = make_line_network(5);
  std::stringstream buffer;
  net.write_csv(buffer);
  const ContactNetwork restored = ContactNetwork::read_csv(buffer, 5);
  EXPECT_EQ(restored.edge_count(), net.edge_count());
  EXPECT_EQ(restored.content_hash(), net.content_hash());
}

TEST(ContactNetwork, CsvRoundTripOfGeneratedNetwork) {
  SynthPopConfig config;
  config.region = "WY";
  config.scale = 1.0 / 400.0;
  const ContactNetwork net = generate_region(config).network;
  std::stringstream buffer;
  net.write_csv(buffer);
  const ContactNetwork restored =
      ContactNetwork::read_csv(buffer, net.node_count());
  EXPECT_EQ(restored.edge_count(), net.edge_count());
  EXPECT_EQ(restored.content_hash(), net.content_hash());
}

TEST(ContactNetwork, BinaryRoundTrip) {
  const ContactNetwork net = make_line_network(12);
  const std::string path = "/tmp/episcale_test_net.bin";
  net.write_binary(path);
  const ContactNetwork restored = ContactNetwork::read_binary(path);
  EXPECT_EQ(restored.node_count(), net.node_count());
  EXPECT_EQ(restored.content_hash(), net.content_hash());
  std::filesystem::remove(path);
}

TEST(ContactNetwork, BinaryRejectsGarbage) {
  const std::string path = "/tmp/episcale_test_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a network";
  }
  EXPECT_THROW(ContactNetwork::read_binary(path), Error);
  std::filesystem::remove(path);
}

// --- Malformed network binaries and chunk files ---------------------------

/// Overwrites the bytes of `value` at `offset` in an existing file.
template <typename T>
void patch(const std::string& path, std::uint64_t offset, T value) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// The ConfigError message `read` throws, or "" when it throws none.
std::string config_error(const std::function<void()>& read) {
  try {
    read();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// read_csv's ConfigError for a one-row network of 4 nodes whose row is
/// `row`; it must name the data row and `column`.
std::string csv_row_error(const std::string& row, const std::string& column) {
  std::stringstream csv;
  csv << "targetPID,sourcePID,targetActivity,sourceActivity,start,duration,"
         "weight\n1,2,home,home,0,60,1\n"
      << row << "\n";
  const std::string message =
      config_error([&] { ContactNetwork::read_csv(csv, 4); });
  EXPECT_NE(message.find("row 2"), std::string::npos) << message;
  EXPECT_NE(message.find("column " + column), std::string::npos) << message;
  return message;
}

TEST(ReadCsv, RejectsTargetPidBeyond32Bits) {
  // 2^32 + 1 used to load as node 1.
  EXPECT_NE(csv_row_error("4294967297,2,home,home,0,60,1", "targetPID")
                .find("4294967297"),
            std::string::npos);
}

TEST(ReadCsv, RejectsNegativeTargetPid) {
  EXPECT_NE(csv_row_error("-1,2,home,home,0,60,1", "targetPID").find("-1"),
            std::string::npos);
}

TEST(ReadCsv, RejectsStartBeyond16Bits) {
  // 65546 used to load as 10.
  EXPECT_NE(csv_row_error("1,2,home,home,65546,60,1", "start").find("65546"),
            std::string::npos);
}

TEST(ReadCsv, RejectsNegativeDuration) {
  // -1 used to load as 65535.
  EXPECT_NE(csv_row_error("1,2,home,home,0,-1,1", "duration").find("-1"),
            std::string::npos);
}

TEST(ReadCsv, RejectsNonFiniteWeight) {
  EXPECT_NE(csv_row_error("1,2,home,home,0,60,nan", "weight").find("nan"),
            std::string::npos);
  csv_row_error("1,2,home,home,0,60,-0.5", "weight");
  csv_row_error("1,2,home,home,0,60,1e39", "weight");
}

class MalformedBinary : public ::testing::Test {
 protected:
  // Layout: magic, node count, edge count (u64 each), node_count + 1
  // offsets (u64), then the 16-byte contacts.
  static constexpr PersonId kNodes = 12;
  static constexpr std::uint64_t kEdgeCountAt = 16;
  static constexpr std::uint64_t kOffsetsAt = 24;
  static constexpr std::uint64_t kContactsAt = kOffsetsAt + (kNodes + 1) * 8;

  void SetUp() override { make_line_network(kNodes).write_binary(path_); }
  void TearDown() override { std::filesystem::remove(path_); }

  /// read_binary's ConfigError message; it must name the file.
  std::string error() const {
    const std::string message =
        config_error([this] { ContactNetwork::read_binary(path_); });
    EXPECT_NE(message.find(path_), std::string::npos) << message;
    return message;
  }

  // One file per test: ctest runs the tests as concurrent processes.
  const std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("episcale_test_malformed_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin"))
          .string();
};

TEST_F(MalformedBinary, TruncatedFile) {
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 5);
  EXPECT_NE(error().find("but the file holds"), std::string::npos);
}

TEST_F(MalformedBinary, InflatedEdgeCount) {
  patch<std::uint64_t>(path_, kEdgeCountAt, 1ULL << 60);
  EXPECT_NE(error().find("1152921504606846976 edges"), std::string::npos);
}

TEST_F(MalformedBinary, NodeCountBeyondPersonId) {
  patch<std::uint64_t>(path_, 8, 1ULL << 33);
  EXPECT_NE(error().find("does not fit a PersonId"), std::string::npos);
}

TEST_F(MalformedBinary, NonMonotoneOffsets) {
  patch<std::uint64_t>(path_, kOffsetsAt + 4 * 8, 1);  // offsets[4] < [3]
  EXPECT_NE(error().find("offsets decrease at node 3"), std::string::npos);
  make_line_network(kNodes).write_binary(path_);
  patch<std::uint64_t>(path_, kOffsetsAt, 1);  // offsets[0] != 0
  EXPECT_NE(error().find("offsets do not run from 0"), std::string::npos);
}

TEST_F(MalformedBinary, OutOfRangeSource) {
  patch<PersonId>(path_, kContactsAt + 5 * sizeof(Contact), kNodes + 7);
  EXPECT_NE(error().find("edge 5 has source 19 but there are 12 nodes"),
            std::string::npos);
}

TEST_F(MalformedBinary, UnknownActivity) {
  patch<std::uint8_t>(path_, kContactsAt + 2 * sizeof(Contact) + 8, 9);
  EXPECT_NE(error().find("edge 2 has an unknown activity"), std::string::npos);
}

TEST(PartitionChunks, RejectsInflatedCount) {
  const ContactNetwork net = make_line_network(30);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "episcale_test_badcount")
          .string();
  std::filesystem::remove_all(dir);
  const auto paths = write_partition_chunks(net, partition_network(net, 2), dir);
  patch<std::uint64_t>(paths[0], 8, 1ULL << 60);
  const std::string message =
      config_error([&] { read_partition_chunk(paths[0]); });
  EXPECT_NE(message.find(paths[0]), std::string::npos) << message;
  EXPECT_NE(message.find("header declares 1152921504606846976 records"),
            std::string::npos)
      << message;
  std::filesystem::remove_all(dir);
}

TEST(NetworkStats, CountsContextsAndDegrees) {
  ContactNetworkBuilder builder(4);
  builder.add_contact(0, 1, 0, 600, ActivityType::kHome, ActivityType::kHome);
  builder.add_contact(1, 2, 540, 240, ActivityType::kWork, ActivityType::kWork);
  const ContactNetwork net = std::move(builder).finalize();
  const NetworkStats stats = compute_stats(net);
  EXPECT_EQ(stats.nodes, 4u);
  EXPECT_EQ(stats.undirected_contacts, 2u);
  EXPECT_EQ(stats.isolated_nodes, 1u);  // node 3
  EXPECT_EQ(stats.max_degree, 2u);      // node 1
  EXPECT_EQ(stats.edges_by_context[static_cast<int>(ActivityType::kHome)], 2u);
  EXPECT_EQ(stats.edges_by_context[static_cast<int>(ActivityType::kWork)], 2u);
}

// ---------------------------------------------------------- partition ----

TEST(Partition, TilesNodesAndEdges) {
  const ContactNetwork net = make_line_network(100);
  const Partitioning parts = partition_network(net, 4);
  EXPECT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts.part(0).node_begin, 0u);
  EXPECT_EQ(parts.parts().back().node_end, 100u);
  EXPECT_EQ(parts.parts().back().edge_end, net.edge_count());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts.part(i).node_begin, parts.part(i - 1).node_end);
    EXPECT_EQ(parts.part(i).edge_begin, parts.part(i - 1).edge_end);
  }
}

TEST(Partition, AllInEdgesOfNodeStayTogether) {
  const ContactNetwork net = make_line_network(50);
  const Partitioning parts = partition_network(net, 7);
  for (PersonId v = 0; v < net.node_count(); ++v) {
    const std::size_t owner = parts.partition_of(v);
    EXPECT_GE(net.in_begin(v), parts.part(owner).edge_begin);
    EXPECT_LE(net.in_end(v), parts.part(owner).edge_end);
  }
}

TEST(Partition, BalancedWithinThreshold) {
  const ContactNetwork net = make_line_network(1000);
  const Partitioning parts = partition_network(net, 8);
  // Path graph has max in-degree 2; imbalance should be tiny.
  EXPECT_LT(parts.edge_imbalance(), 1.1);
}

TEST(Partition, SinglePartition) {
  const ContactNetwork net = make_line_network(10);
  const Partitioning parts = partition_network(net, 1);
  EXPECT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts.part(0).edge_count(), net.edge_count());
}

TEST(Partition, MorePartitionsThanNodesClamps) {
  const ContactNetwork net = make_line_network(3);
  const Partitioning parts = partition_network(net, 64);
  EXPECT_LE(parts.size(), 3u);
}

TEST(Partition, PartitionOfCoversAllNodes) {
  const ContactNetwork net = make_line_network(30);
  const Partitioning parts = partition_network(net, 5);
  for (PersonId v = 0; v < 30; ++v) {
    const std::size_t owner = parts.partition_of(v);
    EXPECT_GE(v, parts.part(owner).node_begin);
    EXPECT_LT(v, parts.part(owner).node_end);
  }
}

TEST(Partition, SaveLoadRoundTrip) {
  const ContactNetwork net = make_line_network(40);
  const Partitioning parts = partition_network(net, 3);
  const std::string path = "/tmp/episcale_test_partition.bin";
  parts.save(path);
  const Partitioning restored = Partitioning::load(path);
  ASSERT_EQ(restored.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(restored.part(i).node_begin, parts.part(i).node_begin);
    EXPECT_EQ(restored.part(i).edge_end, parts.part(i).edge_end);
  }
  std::filesystem::remove(path);
}

TEST(Partition, LoadRejectsInflatedCount) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "episcale_test_badparts.bin")
          .string();
  partition_network(make_line_network(40), 3).save(path);
  patch<std::uint64_t>(path, 8, 1ULL << 60);
  const std::string message = config_error([&] { Partitioning::load(path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("header declares 1152921504606846976 records"),
            std::string::npos)
      << message;
  std::filesystem::remove(path);
}

TEST(Partition, CacheHitSkipsRecomputation) {
  const ContactNetwork net = make_line_network(60);
  const std::string cache_dir = "/tmp/episcale_test_cache";
  std::filesystem::remove_all(cache_dir);
  bool hit = true;
  const Partitioning first = partition_with_cache(net, 4, 0, cache_dir, &hit);
  EXPECT_FALSE(hit);
  const Partitioning second = partition_with_cache(net, 4, 0, cache_dir, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.size(), first.size());
  // Different P -> different cache entry.
  const Partitioning third = partition_with_cache(net, 2, 0, cache_dir, &hit);
  EXPECT_FALSE(hit);
  std::filesystem::remove_all(cache_dir);
}

TEST(Partition, CacheKeyedByContent) {
  const ContactNetwork a = make_line_network(20);
  const ContactNetwork b = make_line_network(21);
  EXPECT_NE(partition_cache_filename(a, 4, 0),
            partition_cache_filename(b, 4, 0));
  EXPECT_NE(partition_cache_filename(a, 4, 0),
            partition_cache_filename(a, 5, 0));
  EXPECT_NE(partition_cache_filename(a, 4, 0),
            partition_cache_filename(a, 4, 9));
}

TEST(PartitionChunks, RoundTripPerPartition) {
  const ContactNetwork net = make_line_network(60);
  const Partitioning parts = partition_network(net, 4);
  const std::string dir = "/tmp/episcale_test_chunks";
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(partition_chunks_cached(net, parts, dir));
  const auto paths = write_partition_chunks(net, parts, dir);
  ASSERT_EQ(paths.size(), parts.size());
  EXPECT_TRUE(partition_chunks_cached(net, parts, dir));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto contacts = read_partition_chunk(paths[i]);
    EXPECT_EQ(contacts.size(), parts.part(i).edge_count());
    total += contacts.size();
    // Chunk contents match the network's edge range exactly.
    for (std::size_t j = 0; j < contacts.size(); ++j) {
      EXPECT_EQ(contacts[j].source,
                net.contact(parts.part(i).edge_begin + j).source);
    }
  }
  EXPECT_EQ(total, net.edge_count());
  std::filesystem::remove_all(dir);
}

TEST(PartitionChunks, RejectsGarbageFile) {
  const std::string path = "/tmp/episcale_test_badchunk.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "nope";
  }
  EXPECT_THROW(read_partition_chunk(path), Error);
  std::filesystem::remove(path);
}

// Property sweep over partition counts: tiling + in-edge locality hold.
class PartitionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionSweep, InvariantsHold) {
  const ContactNetwork net = make_line_network(123);
  const Partitioning parts = partition_network(net, GetParam());
  std::uint64_t edge_total = 0;
  for (const Partition& p : parts.parts()) {
    EXPECT_LE(p.node_begin, p.node_end);
    edge_total += p.edge_count();
  }
  EXPECT_EQ(edge_total, net.edge_count());
}

INSTANTIATE_TEST_SUITE_P(Counts, PartitionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 40, 123));

// --- Out-edge transpose (the frontier kernel's push index) ---------------

TEST(ContactNetwork, OutEdgeTransposeConsistent) {
  const ContactNetwork net = make_line_network(17);
  std::uint64_t total = 0;
  for (PersonId u = 0; u < net.node_count(); ++u) {
    const auto edges = net.out_edges_of(u);
    EXPECT_EQ(edges.size(), net.out_degree(u));
    total += edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      // Every listed edge really is sourced at u...
      EXPECT_EQ(net.contact(edges[i]).source, u);
      // ...and buckets are ascending (the frontier sort relies on it).
      if (i > 0) {
        EXPECT_LT(edges[i - 1], edges[i]);
      }
    }
  }
  EXPECT_EQ(total, net.edge_count());
  // Inverse direction: every edge appears in its source's bucket.
  for (EdgeIndex e = 0; e < net.edge_count(); ++e) {
    const auto edges = net.out_edges_of(net.contact(e).source);
    EXPECT_TRUE(std::binary_search(edges.begin(), edges.end(), e));
  }
}

TEST(ContactNetwork, OutEdgeTransposeSurvivesBinaryRoundTrip) {
  const ContactNetwork net = make_line_network(12);
  const std::string path = "/tmp/episcale_test_outcsr.bin";
  net.write_binary(path);
  const ContactNetwork loaded = ContactNetwork::read_binary(path);
  for (PersonId u = 0; u < net.node_count(); ++u) {
    const auto a = net.out_edges_of(u);
    const auto b = loaded.out_edges_of(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  std::filesystem::remove(path);
}

// --- Ghost sources (the halo each rank subscribes to) --------------------

TEST(Partition, GhostSourcesAreExactlyRemoteInEdgeSources) {
  const ContactNetwork line = make_line_network(40);
  SynthPopConfig config;
  config.region = "VT";
  config.scale = 1.0 / 200.0;
  const ContactNetwork generated = generate_region(config).network;
  const std::vector<std::pair<const ContactNetwork*, std::size_t>> cases = {
      {&line, 5}, {&generated, 4}, {&generated, 8}};
  for (const auto& [net, count] : cases) {
    const Partitioning parts = partition_network(*net, count);
    ASSERT_EQ(parts.size(), count);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const Partition& part = parts.part(i);
      // Brute-force reference: remote sources over this part's edge range.
      std::set<PersonId> expected;
      for (EdgeIndex e = part.edge_begin; e < part.edge_end; ++e) {
        const PersonId s = net->contact(e).source;
        if (s < part.node_begin || s >= part.node_end) expected.insert(s);
      }
      const auto ghosts = compute_ghost_sources(*net, parts, i);
      EXPECT_TRUE(std::is_sorted(ghosts.begin(), ghosts.end()));
      EXPECT_EQ(std::set<PersonId>(ghosts.begin(), ghosts.end()), expected);
      EXPECT_EQ(ghosts.size(), expected.size());  // no duplicates
    }
  }
}

TEST(Partition, GhostSourcesEmptyForSinglePartition) {
  const ContactNetwork net = make_line_network(10);
  const Partitioning parts = partition_network(net, 1);
  EXPECT_TRUE(compute_ghost_sources(net, parts, 0).empty());
}

}  // namespace
}  // namespace epi
