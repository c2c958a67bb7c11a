// Partitioner study (paper section III): even the simple threshold
// algorithm costs real time at scale ("partitioning the network to binary
// chunks for California alone would take over one hour"), which is why
// partitions are computed once and cached on disk. This bench measures
// partition cost vs cache-load cost, balance quality, and the epsilon
// tolerance ablation.

#include <cstdio>
#include <filesystem>

#include "bench_report.hpp"
#include "network/partition.hpp"
#include "synthpop/generator.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main() {
  using namespace epi;
  using namespace epi::bench;

  heading("Partitioner: cost, caching, and balance (paper section III)");

  SynthPopConfig config;
  config.region = "VA";
  config.scale = 1.0 / 500.0;  // ~17k persons, ~200k directed edges
  config.seed = 20200325;
  Timer generation_timer;
  const SyntheticRegion region = generate_region(config);
  note("network: " + fmt_int(region.population.person_count()) + " persons, " +
       fmt_int(region.network.edge_count()) + " directed edges (generated in " +
       fmt(generation_timer.elapsed_seconds(), 1) + "s)");

  subheading("partition + binary chunk materialization vs cached (P = 64)");
  // The production cost is dominated by splitting the network into the
  // per-rank binary chunk files ("partitioning the network to binary
  // chunks for California alone would take over one hour"); the cached
  // nightly path only has to check that the chunks exist.
  const std::string cache_dir = "/tmp/episcale_bench_partition_cache";
  std::filesystem::remove_all(cache_dir);
  bool hit = false;
  Timer cold_timer;
  const Partitioning partitioning =
      partition_with_cache(region.network, 64, 0, cache_dir, &hit);
  write_partition_chunks(region.network, partitioning, cache_dir);
  const double cold = cold_timer.elapsed_seconds();
  // The network remembers its content hash, so the warm path runs on a
  // fresh copy of the same network: a nightly process pays one hash.
  const SyntheticRegion fresh = generate_region(config);
  Timer warm_timer;
  const Partitioning reloaded =
      partition_with_cache(fresh.network, 64, 0, cache_dir, &hit);
  const bool chunks_ready =
      partition_chunks_cached(fresh.network, reloaded, cache_dir);
  const double warm = warm_timer.elapsed_seconds();
  compare("cold: partition + write 64 binary chunks",
          "CA at full scale: over an hour", fmt(cold * 1000.0, 1) + "ms");
  compare("warm: cache hit + chunk existence check",
          "static partitions reused nightly",
          fmt(warm * 1000.0, 2) + "ms (chunks=" +
              (chunks_ready ? "ready" : "missing") + ")");
  compare("cache speedup", ">> 1", fmt(cold / std::max(warm, 1e-9), 1) + "x");
  // Extrapolate the cold cost to the production CA network (~1 billion
  // directed edges at 26 contacts/person): linear in edges.
  const double edges_ratio =
      (39.5e6 * 26.0) / static_cast<double>(region.network.edge_count());
  compare("cold cost extrapolated to full-scale CA", "over an hour",
          fmt(cold * edges_ratio / 60.0, 1) + " minutes");
  note("  remaining gap vs 'over an hour': production re-parsed the CSV-text");
  note("  source (~3x the bytes) through a shared Lustre filesystem; this");
  note("  bench writes binary chunks to the local page cache");
  std::filesystem::remove_all(cache_dir);

  subheading("balance vs partition count (epsilon = 0)");
  row({"P", "imbalance (max/mean edges)", "largest part edges"}, 28);
  for (const std::size_t p : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const Partitioning parts = partition_network(region.network, p);
    std::uint64_t largest = 0;
    for (const auto& part : parts.parts()) {
      largest = std::max(largest, part.edge_count());
    }
    row({fmt_int(p), fmt(parts.edge_imbalance(), 3), fmt_int(largest)}, 28);
  }

  subheading("epsilon tolerance ablation (P = 32)");
  row({"epsilon (edges)", "parts", "imbalance"}, 20);
  const std::uint64_t per_part = region.network.edge_count() / 32;
  for (const std::uint64_t eps :
       {std::uint64_t{0}, per_part / 20, per_part / 5, per_part}) {
    const Partitioning parts = partition_network(region.network, 32, eps);
    row({fmt_int(eps), fmt_int(parts.size()), fmt(parts.edge_imbalance(), 3)},
        20);
  }
  note("larger epsilon lets early partitions absorb more edges, trading");
  note("balance for fewer partition splits (the paper's tolerance factor)");

  subheading("shape checks");
  note("- in-edge locality holds at every P (verified by the test suite)");
  note("- cache turns a repartition into a file read, as in production");
  return 0;
}
