// Fig 7 (middle) reproduction: strong scaling of EpiHiper — performance
// improves as processing units are added, with diminishing returns (and
// eventual slowdown) from communication costs, the knee depending on
// problem size.
//
// Measured strong scaling lives in perfbench, which times real 1- and
// 4-rank replicates on the host's 4 cores (`scaling_eff_4r`). Past 4
// ranks this bench extrapolates: it runs the REAL partitioned engine at
// each rank count and reports the dedicated-core time model
//     T(p) = max_rank(work) / throughput + comm_bytes(p) * wire_cost
// where work is the engine's instrumented per-rank operation count (edge
// evaluations, pull-tick rescans and progression-calendar entries),
// throughput is measured from the serial run, and the wire cost is an
// Omnipath-class constant. Communication volume is the engine's actual
// mpilite traffic, not an estimate. The modeled time leaves out the
// per-person passes that work does not count (seeding's county scan,
// intervention compliance passes): they spread evenly over the ranks,
// while the counted work follows the infections.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/timer.hpp"

int main() {
  using namespace epi;
  using namespace epi::bench;

  heading("Fig 7 (middle) — strong scaling of EpiHiper");
  note("modeled dedicated-core time: max-rank work / throughput + comm cost");
  note("(an extrapolation past the host's 4 cores; work and comm volumes are");
  note("measured, and perfbench measures real 4-rank scaling, see header)");

  const DiseaseModel model = covid_model();
  // Three medium-to-large networks, as in the paper's three curves.
  const struct {
    const char* region;
    double scale;
  } networks[] = {{"VT", 1.0 / 100.0}, {"WV", 1.0 / 100.0}, {"KY", 1.0 / 150.0}};

  // Omnipath-class wire model: ~1.5 GB/s effective per-rank bandwidth
  // plus ~20 us software latency per message round (one infectious-set
  // exchange per tick per rank).
  const double wire_seconds_per_byte = 6.7e-10;
  const double latency_seconds_per_message = 2e-5;

  JsonReport report("fig7_scaling");
  for (const auto& net : networks) {
    SynthPopConfig pop_config;
    pop_config.region = net.region;
    pop_config.scale = net.scale;
    const SyntheticRegion region = generate_region(pop_config);
    SimulationConfig config;
    config.num_ticks = 60;
    config.seed = 11;
    config.seeds = {SeedSpec{0, 8, 0}};

    subheading(std::string(net.region) + " — " +
               fmt_int(region.population.person_count()) + " persons, " +
               fmt_int(region.network.contact_count()) + " contacts");

    // Serial baseline: measure throughput (work units per second).
    Timer timer;
    const SimOutput serial =
        run_simulation(region.network, region.population, model, config);
    const double serial_seconds = timer.elapsed_seconds();
    const double throughput =
        static_cast<double>(serial.work_units) / serial_seconds;
    const std::string prefix = std::string(net.region);
    report.metric(prefix + ".serial.seconds", serial_seconds);
    report.metric(prefix + ".serial.seconds_per_tick", serial_seconds / 60.0);
    report.metric(prefix + ".serial.work_units", serial.work_units);

    row({"ranks", "max-rank work", "comm MB", "modeled time", "speedup"}, 16);
    row({"1", fmt_int(serial.work_units), "0.0", fmt(serial_seconds, 3) + "s",
         "1.00"},
        16);
    for (const int ranks : {2, 4, 8, 16, 32, 64}) {
      const Partitioning parts =
          partition_network(region.network, static_cast<std::size_t>(ranks));
      if (parts.size() != static_cast<std::size_t>(ranks)) break;
      const SimOutput out = run_simulation_parallel(
          region.network, region.population, model, config, parts, ranks);
      const double compute_seconds =
          static_cast<double>(out.max_rank_work_units) / throughput;
      const double comm_seconds =
          static_cast<double>(out.communication_bytes) * wire_seconds_per_byte +
          latency_seconds_per_message * static_cast<double>(ranks) * 60.0;
      const double modeled = compute_seconds + comm_seconds;
      row({fmt_int(static_cast<std::uint64_t>(ranks)),
           fmt_int(out.max_rank_work_units),
           fmt(static_cast<double>(out.communication_bytes) / 1e6, 2),
           fmt(modeled, 3) + "s", fmt(serial_seconds / modeled, 2)},
          16);
      // Zero-padded rank keys keep the sorted-JSON series in rank order.
      char rank_key[8];
      std::snprintf(rank_key, sizeof(rank_key), "p%03d", ranks);
      const std::string rp = prefix + "." + rank_key;
      report.metric(rp + ".max_rank_work_units", out.max_rank_work_units);
      report.metric(rp + ".communication_bytes", out.communication_bytes);
      report.metric(rp + ".ghost_exchange_bytes", out.ghost_exchange_bytes);
      report.metric(rp + ".modeled_seconds", modeled);
      report.metric(rp + ".modeled_seconds_per_tick", modeled / 60.0);
      report.metric(rp + ".speedup", serial_seconds / modeled);
      std::uint64_t peak_memory = 0;
      for (const auto m : out.memory_bytes_per_tick) {
        peak_memory = std::max(peak_memory, m);
      }
      report.metric(rp + ".peak_memory_bytes", peak_memory);
    }
  }
  report.write();

  subheading("shape checks");
  note("- speedup grows with ranks, then flattens/reverses as communication");
  note("  dominates (the paper's diminishing-returns knee)");
  note("- larger networks sustain scaling to higher rank counts");
  return 0;
}
