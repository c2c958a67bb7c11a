// Communication volume of the transmission engine on an 8-rank DC run.
//
// A broadcast exchange would allgatherv every rank's full infectious set
// to every rank, every tick — O(global infectious x ranks) bytes on the
// wire regardless of how many of those records a rank could ever use.
// The engine never does: on every executed tick the ghost-delta protocol
// sends each rank only the *changes* to the boundary records it subscribed
// to at construction, and both kernels (push below 2% of persons
// infectious, pull at or above) read those records. Globally quiescent
// ticks are skipped outright (the seeds land at tick 8, so the dormant
// prefix is provably skippable). This bench reports wire bytes, evaluated
// edges, the kernel split, progressions and skipped ticks; it exits
// non-zero if the 8-rank epidemic differs from the serial one (final
// states, incidence, or a merged log other than the serial log
// stable-sorted by (tick, person)) or if no tick was skipped.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/timer.hpp"

namespace {

std::uint64_t peak(const std::vector<std::uint64_t>& series) {
  return series.empty() ? 0 : *std::max_element(series.begin(), series.end());
}

double mean(const std::vector<double>& series) {
  if (series.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : series) sum += v;
  return sum / static_cast<double>(series.size());
}

std::uint64_t sum_edges(const epi::SimOutput& out) {
  std::uint64_t edges = 0;
  for (const auto v : out.frontier_edges_per_tick) edges += v;
  return edges;
}

// Whether the merged parallel log is the serial log stable-sorted by
// (tick, person), compared field by field (TransitionEvent has padding).
bool merged_log_matches(const epi::SimOutput& parallel,
                        const epi::SimOutput& serial) {
  std::vector<epi::TransitionEvent> expected = serial.transitions;
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const epi::TransitionEvent& a, const epi::TransitionEvent& b) {
        return a.tick < b.tick || (a.tick == b.tick && a.person < b.person);
      });
  return std::equal(
      parallel.transitions.begin(), parallel.transitions.end(),
      expected.begin(), expected.end(),
      [](const epi::TransitionEvent& a, const epi::TransitionEvent& b) {
        return a.tick == b.tick && a.person == b.person &&
               a.exit_state == b.exit_state && a.infector == b.infector;
      });
}

}  // namespace

int main() {
  using namespace epi;
  using namespace epi::bench;

  heading("Communication volume of the transmission engine");
  note("8 ranks against the serial run: the epidemic outputs must be");
  note("identical; wire traffic, touched edges and per-tick cost are measured");

  SynthPopConfig pop_config;
  pop_config.region = "DC";
  pop_config.scale = 1.0 / 50.0;
  pop_config.seed = 7;
  const SyntheticRegion region = generate_region(pop_config);
  const DiseaseModel model = covid_model();

  constexpr int kRanks = 8;
  constexpr Tick kTicks = 60;
  SimulationConfig config;
  config.num_ticks = kTicks;
  config.seed = 11;
  // Seeds land at tick 8: the dormant prefix gives a deterministic skip
  // window.
  config.seeds = {SeedSpec{0, 10, 8}};

  const Partitioning parts =
      partition_network(region.network, static_cast<std::size_t>(kRanks));

  subheading("DC — " + fmt_int(region.population.person_count()) +
             " persons, " + fmt_int(region.network.contact_count()) +
             " contacts, " + fmt_int(kRanks) + " ranks, " + fmt_int(kTicks) +
             " ticks");

  const SimOutput serial =
      run_simulation(region.network, region.population, model, config);
  Timer timer;
  const SimOutput out = run_simulation_parallel(
      region.network, region.population, model, config, parts, kRanks);
  const double wall_seconds = timer.elapsed_seconds();

  bool ok = true;
  if (out.final_states != serial.final_states ||
      out.new_infections_per_tick != serial.new_infections_per_tick ||
      out.total_infections != serial.total_infections ||
      !merged_log_matches(out, serial)) {
    note("FAIL: the 8-rank epidemic differs from the serial one");
    ok = false;
  }

  row({"comm MB", "s/tick", "wall s", "events", "skipped", "pull", "push"},
      10);
  row({fmt(static_cast<double>(out.communication_bytes) / 1e6, 3),
       fmt(mean(out.seconds_per_tick), 4), fmt(wall_seconds, 3),
       fmt_int(out.events_fired), fmt_int(out.ticks_skipped),
       fmt_int(out.broadcast_ticks), fmt_int(out.ghost_ticks)},
      10);
  note("edges evaluated (all ticks, all ranks): " + fmt_int(sum_edges(out)) +
       "; ghost-delta payload " + fmt_int(out.ghost_exchange_bytes) +
       " bytes");

  JsonReport report("comm_volume");
  report.metric("ranks", static_cast<std::uint64_t>(kRanks));
  report.metric("ticks", static_cast<std::uint64_t>(kTicks));
  report.metric("persons",
                static_cast<std::uint64_t>(region.population.person_count()));
  report.metric("contacts", region.network.contact_count());
  report.metric("total_infections", out.total_infections);
  report.metric("communication_bytes", out.communication_bytes);
  report.metric("ghost_exchange_bytes", out.ghost_exchange_bytes);
  report.metric("peak_memory_bytes", peak(out.memory_bytes_per_tick));
  report.metric("seconds_per_tick_mean", mean(out.seconds_per_tick));
  report.metric("edges_evaluated", sum_edges(out));
  report.metric("events_scheduled", out.events_scheduled);
  report.metric("events_fired", out.events_fired);
  report.metric("ticks_skipped", out.ticks_skipped);
  report.metric("ticks_executed", out.ticks_executed);
  report.metric("broadcast_ticks", out.broadcast_ticks);
  report.metric("ghost_ticks", out.ghost_ticks);
  report.metric("outputs_identical", ok ? std::uint64_t{1} : std::uint64_t{0});
  report.write();

  if (out.ticks_skipped == 0) {
    note("FAIL: no tick skipped despite the dormant seed prefix");
    ok = false;
  }
  if (ok) note("PASS: 8-rank output equals serial, dormant ticks skipped");
  return ok ? 0 : 1;
}
