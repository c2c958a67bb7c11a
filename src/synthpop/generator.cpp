#include "synthpop/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "synthpop/ipf.hpp"
#include "synthpop/visits.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace epi {

namespace {

// Target mean within-sub-location degree per context; together with the
// sub-location capacities these tune the network density. The production
// networks average ~26 contacts/person; these values land in the same
// regime while keeping generation fast.
double target_degree(ActivityType type) {
  switch (type) {
    case ActivityType::kHome: return 15.0;  // household clique (capped by size)
    case ActivityType::kWork: return 10.0;
    case ActivityType::kShopping: return 3.0;
    case ActivityType::kOther: return 3.0;
    case ActivityType::kSchool: return 14.0;
    case ActivityType::kCollege: return 8.0;
    case ActivityType::kReligion: return 10.0;
  }
  return 4.0;
}

// Occupation assignment by age (labor-force shares approximating BLS).
Occupation sample_occupation(int age, Rng& rng) {
  if (age <= 4) return Occupation::kPreschooler;
  if (age <= 17) return Occupation::kStudent;
  if (age <= 22) {
    if (rng.bernoulli(0.45)) return Occupation::kCollegeStudent;
    return rng.bernoulli(0.70) ? Occupation::kWorker
                               : Occupation::kHomeOrRetired;
  }
  if (age <= 64) {
    return rng.bernoulli(0.72) ? Occupation::kWorker
                               : Occupation::kHomeOrRetired;
  }
  return rng.bernoulli(0.12) ? Occupation::kWorker : Occupation::kHomeOrRetired;
}

int sample_age_in_group(AgeGroup group, Rng& rng) {
  switch (group) {
    case AgeGroup::kPreschool: return static_cast<int>(rng.uniform_int(0, 4));
    case AgeGroup::kSchool: return static_cast<int>(rng.uniform_int(5, 17));
    case AgeGroup::kAdult: return static_cast<int>(rng.uniform_int(18, 49));
    case AgeGroup::kOlderAdult: return static_cast<int>(rng.uniform_int(50, 64));
    case AgeGroup::kSenior: return static_cast<int>(rng.uniform_int(65, 95));
  }
  return 30;
}

/// The visits of each day in `days`, each day's in ascending person
/// order. Each person draws from a stream of its own: the week schedule
/// once, then each day's locations from a copy of the stream as the week
/// left it, which are the draws a pass over that day alone makes. Person
/// ranges run on workers_for(persons, kVisitGrain) threads and their runs
/// are joined in range order. Every run is reserved on the calling thread
/// for its most visits, so workers allocate nothing.
std::vector<std::vector<Visit>> visits_by_day(
    const std::vector<PersonTraits>& persons,
    const std::vector<LocationId>& anchor, const std::vector<bool>& has_anchor,
    const LocationModel& locations, const Rng& rng,
    const std::vector<int>& days) {
  using WeekRuns = std::array<std::vector<Visit>, 7>;
  EPI_ASSERT(days.size() <= WeekRuns{}.size(), "more days than a week");
  const std::size_t workers = workers_for(persons.size(), kVisitGrain);
  // runs[w][d]: worker w's visits on days[d].
  std::vector<WeekRuns> runs(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    for (std::size_t d = 0; d < days.size(); ++d) {
      runs[w][d].reserve(kMaxActivitiesPerDay *
                         (slice_begin(persons.size(), workers, w + 1) -
                          slice_begin(persons.size(), workers, w)));
    }
  }
  run_workers(workers, [&](std::size_t w) {
    // Filled through a stack copy: neighbouring runs' headers share a
    // cache line, and every push_back would write it.
    WeekRuns day_runs = std::move(runs[w]);
    const auto begin =
        static_cast<PersonId>(slice_begin(persons.size(), workers, w));
    const auto end =
        static_cast<PersonId>(slice_begin(persons.size(), workers, w + 1));
    for (PersonId p = begin; p < end; ++p) {
      Rng person_rng = rng.derive({0x414354ULL, p});  // "ACT"
      const WeekSchedule week = assign_week_schedule(
          static_cast<Occupation>(persons[p].occupation), person_rng);
      for (std::size_t d = 0; d < days.size(); ++d) {
        Rng day_rng = person_rng;
        for (const Activity& a : week.days[static_cast<std::size_t>(days[d])]) {
          if (a.type == ActivityType::kHome) continue;
          LocationId where;
          if ((a.type == ActivityType::kWork ||
               a.type == ActivityType::kSchool ||
               a.type == ActivityType::kCollege) &&
              has_anchor[p]) {
            where = anchor[p];
          } else {
            where = locations.assign(persons[p].county, a.type, day_rng);
          }
          day_runs[d].push_back(
              Visit{where, p, a.start_minute, a.end_minute(), a.type});
        }
      }
    }
    runs[w] = std::move(day_runs);
  });
  std::vector<std::vector<Visit>> visits(days.size());
  for (std::size_t d = 0; d < days.size(); ++d) {
    if (workers == 1) {
      visits[d] = std::move(runs.front()[d]);
      continue;
    }
    std::size_t total = 0;
    for (const auto& day_runs : runs) total += day_runs[d].size();
    visits[d].reserve(total);
    for (const auto& day_runs : runs) {
      visits[d].insert(visits[d].end(), day_runs[d].begin(), day_runs[d].end());
    }
  }
  return visits;
}

}  // namespace

std::array<double, kAgeGroupCount> us_age_distribution() {
  // 2019 national shares: 0-4, 5-17, 18-49, 50-64, 65+.
  return {0.059, 0.163, 0.424, 0.191, 0.163};
}

std::array<double, 7> us_household_size_distribution() {
  // ACS household sizes 1..7+ (7 absorbs the tail); mean ~2.5.
  return {0.28, 0.34, 0.15, 0.13, 0.06, 0.025, 0.015};
}

SyntheticRegion generate_region(const SynthPopConfig& config) {
  const StateInfo& state = state_by_abbrev(config.region);
  EPI_REQUIRE(config.scale > 0.0 && config.scale <= 1.0,
              "scale must be in (0, 1], got " << config.scale);
  Rng master(config.seed);
  Rng rng = master.derive({0x5359'4e50ULL, state.fips});  // "SYNP"

  const auto target_persons = std::max<std::uint64_t>(
      80, static_cast<std::uint64_t>(
              std::llround(static_cast<double>(state.population) * config.scale)));

  CountyLayout layout = make_county_layout(state, rng);
  const std::size_t num_counties = layout.fips.size();

  // --- Per-county person budgets (largest-remainder apportionment) -------
  std::vector<std::uint64_t> county_target(num_counties, 0);
  {
    std::uint64_t assigned = 0;
    std::vector<std::pair<double, std::size_t>> remainders;
    for (std::size_t c = 0; c < num_counties; ++c) {
      const double exact =
          layout.population_share[c] * static_cast<double>(target_persons);
      county_target[c] = static_cast<std::uint64_t>(exact);
      assigned += county_target[c];
      remainders.emplace_back(exact - std::floor(exact), c);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t i = 0; assigned < target_persons && i < remainders.size();
         ++i, ++assigned) {
      ++county_target[remainders[i].second];
    }
  }

  // --- IPF: joint (age group x household size) --------------------------
  // Seed encodes structure: children never live in single-person
  // households; seniors skew toward small households.
  const auto age_dist = us_age_distribution();
  auto hh_dist = us_household_size_distribution();
  {
    // Adjust the household-size distribution so its mean matches the
    // state's average household size (simple exponential tilt).
    double current_mean = 0.0;
    for (std::size_t s = 0; s < hh_dist.size(); ++s) {
      current_mean += hh_dist[s] * static_cast<double>(s + 1);
    }
    const double tilt = std::log(state.avg_household_size / current_mean);
    double normalizer = 0.0;
    for (std::size_t s = 0; s < hh_dist.size(); ++s) {
      hh_dist[s] *= std::exp(tilt * static_cast<double>(s + 1) / 3.0);
      normalizer += hh_dist[s];
    }
    for (auto& p : hh_dist) p /= normalizer;
  }

  Matrix2D seed_joint(kAgeGroupCount, hh_dist.size(), 1.0);
  // Structural zeros / penalties.
  seed_joint.at(0, 0) = 0.0;  // no preschooler alone
  seed_joint.at(1, 0) = 0.0;  // no school-age child alone
  seed_joint.at(4, 4) = 0.3;  // seniors rare in very large households
  seed_joint.at(4, 5) = 0.2;
  seed_joint.at(4, 6) = 0.1;

  std::vector<double> row_targets(kAgeGroupCount);
  std::vector<double> col_targets(hh_dist.size());
  // Person-weighted column targets: share of *persons* living in size-s
  // households is proportional to s * P(household size = s).
  double person_weight_total = 0.0;
  for (std::size_t s = 0; s < hh_dist.size(); ++s) {
    person_weight_total += hh_dist[s] * static_cast<double>(s + 1);
  }
  for (std::size_t s = 0; s < hh_dist.size(); ++s) {
    col_targets[s] =
        hh_dist[s] * static_cast<double>(s + 1) / person_weight_total;
  }
  for (int g = 0; g < kAgeGroupCount; ++g) {
    row_targets[static_cast<std::size_t>(g)] = age_dist[static_cast<std::size_t>(g)];
  }
  const IpfResult ipf =
      iterative_proportional_fit(seed_joint, row_targets, col_targets, 1e-10);
  EPI_ASSERT(ipf.converged, "population IPF failed to converge");

  // Conditional P(age group | household size) from the fitted joint.
  std::vector<std::vector<double>> age_given_size(hh_dist.size());
  for (std::size_t s = 0; s < hh_dist.size(); ++s) {
    age_given_size[s].resize(kAgeGroupCount);
    double column_total = 0.0;
    for (int g = 0; g < kAgeGroupCount; ++g) {
      column_total += ipf.fitted.at(static_cast<std::size_t>(g), s);
    }
    for (int g = 0; g < kAgeGroupCount; ++g) {
      age_given_size[s][static_cast<std::size_t>(g)] =
          column_total > 0.0
              ? ipf.fitted.at(static_cast<std::size_t>(g), s) / column_total
              : 0.0;
    }
  }

  // --- Synthesize households and persons ---------------------------------
  std::vector<PersonTraits> persons;
  std::vector<Household> households;
  persons.reserve(target_persons);
  // One household's age groups; sizes run 1 .. hh_dist.size().
  std::array<AgeGroup, std::tuple_size_v<decltype(hh_dist)>> groups{};
  const std::vector<double> hh_weights(hh_dist.begin(), hh_dist.end());
  for (std::size_t c = 0; c < num_counties; ++c) {
    std::uint64_t remaining = county_target[c];
    while (remaining > 0) {
      auto size = static_cast<std::uint16_t>(rng.discrete(hh_weights) + 1);
      size = static_cast<std::uint16_t>(
          std::min<std::uint64_t>(size, remaining));
      Household hh;
      hh.first_person = static_cast<PersonId>(persons.size());
      hh.size = size;
      hh.county = static_cast<std::uint16_t>(c);
      hh.lat = layout.lat[c] + static_cast<float>(rng.uniform(-0.15, 0.15));
      hh.lon = layout.lon[c] + static_cast<float>(rng.uniform(-0.15, 0.15));
      const auto hh_index = static_cast<std::uint32_t>(households.size());

      // Draw the household's age composition; redraw (rejection sampling)
      // until it contains a resident adult, so households with children are
      // never unsupervised and the marginal age distribution stays close
      // to the IPF targets (forcing a member to adult would skew it).
      const auto& conditional = age_given_size[static_cast<std::size_t>(size - 1)];
      for (int attempt = 0; attempt < 50; ++attempt) {
        bool has_adult = false;
        bool has_child = false;
        for (std::uint16_t m = 0; m < size; ++m) {
          groups[m] = static_cast<AgeGroup>(rng.discrete(conditional));
          if (groups[m] == AgeGroup::kPreschool ||
              groups[m] == AgeGroup::kSchool) {
            has_child = true;
          } else {
            has_adult = true;
          }
        }
        if (has_adult || !has_child) break;
        if (attempt == 49) groups[0] = AgeGroup::kAdult;  // unreachable in practice
      }
      for (std::uint16_t m = 0; m < size; ++m) {
        const AgeGroup group = groups[m];
        PersonTraits t;
        t.household = hh_index;
        t.age = static_cast<std::uint8_t>(sample_age_in_group(group, rng));
        t.age_group = static_cast<std::uint8_t>(group);
        t.gender = rng.bernoulli(0.5) ? 1 : 0;
        t.occupation =
            static_cast<std::uint8_t>(sample_occupation(t.age, rng));
        t.county = static_cast<std::uint16_t>(c);
        t.home_lat = hh.lat;
        t.home_lon = hh.lon;
        persons.push_back(t);
      }
      households.push_back(hh);
      remaining -= size;
    }
  }

  // --- Work-county assignment (commute flows) ---------------------------
  // With prob (1 - commute_out_fraction) a worker stays in the home
  // county; otherwise the destination is drawn by population share
  // (gravity with distance folded into the shares — county geometry is
  // synthetic, so population mass is the dominant term).
  const std::vector<double> county_shares(layout.population_share.begin(),
                                          layout.population_share.end());
  std::vector<std::uint16_t> work_county(persons.size(), 0);
  for (PersonId p = 0; p < persons.size(); ++p) {
    if (static_cast<Occupation>(persons[p].occupation) != Occupation::kWorker) {
      work_county[p] = persons[p].county;
      continue;
    }
    if (num_counties == 1 || !rng.bernoulli(config.commute_out_fraction)) {
      work_county[p] = persons[p].county;
    } else {
      work_county[p] = static_cast<std::uint16_t>(rng.discrete(county_shares));
    }
  }

  // --- Location demand and pools -----------------------------------------
  std::vector<std::array<std::uint64_t, kActivityTypeCount>> demand(
      num_counties, std::array<std::uint64_t, kActivityTypeCount>{});
  for (PersonId p = 0; p < persons.size(); ++p) {
    const auto home = persons[p].county;
    switch (static_cast<Occupation>(persons[p].occupation)) {
      case Occupation::kWorker:
        ++demand[work_county[p]][static_cast<std::size_t>(ActivityType::kWork)];
        break;
      case Occupation::kStudent:
      case Occupation::kPreschooler:
        ++demand[home][static_cast<std::size_t>(ActivityType::kSchool)];
        break;
      case Occupation::kCollegeStudent:
        ++demand[home][static_cast<std::size_t>(ActivityType::kCollege)];
        break;
      case Occupation::kHomeOrRetired:
        break;
    }
    // Errand-type demand scales with total population.
    ++demand[home][static_cast<std::size_t>(ActivityType::kShopping)];
    ++demand[home][static_cast<std::size_t>(ActivityType::kOther)];
    ++demand[home][static_cast<std::size_t>(ActivityType::kReligion)];
  }
  const LocationModel locations(layout, demand, rng);

  // --- Anchor locations per person ---------------------------------------
  std::vector<LocationId> anchor(persons.size(), 0);
  std::vector<bool> has_anchor(persons.size(), false);
  for (PersonId p = 0; p < persons.size(); ++p) {
    switch (static_cast<Occupation>(persons[p].occupation)) {
      case Occupation::kWorker:
        anchor[p] = locations.assign(work_county[p], ActivityType::kWork, rng);
        has_anchor[p] = true;
        break;
      case Occupation::kStudent:
      case Occupation::kPreschooler:
        anchor[p] =
            locations.assign(persons[p].county, ActivityType::kSchool, rng);
        has_anchor[p] = true;
        break;
      case Occupation::kCollegeStudent:
        anchor[p] =
            locations.assign(persons[p].county, ActivityType::kCollege, rng);
        has_anchor[p] = true;
        break;
      case Occupation::kHomeOrRetired:
        break;
    }
  }

  // --- Visits: one day (the projection) or the full week ------------------
  ContactNetworkBuilder builder(static_cast<PersonId>(persons.size()));
  // Household cliques exist on every day; in the week-long network they
  // are still one (daily-recurring) contact record each, as in the
  // production data where the family edge carries the home context.
  for (const Household& hh : households) {
    for (std::uint16_t i = 0; i < hh.size; ++i) {
      for (std::uint16_t j = static_cast<std::uint16_t>(i + 1); j < hh.size; ++j) {
        builder.add_contact(hh.first_person + i, hh.first_person + j,
                            /*start=*/0, /*duration=*/600, ActivityType::kHome,
                            ActivityType::kHome, 1.0f);
      }
    }
  }

  std::vector<int> days;
  if (config.week_long) {
    for (int d = 0; d < 7; ++d) days.push_back(d);
  } else {
    days.push_back(config.projection_day);
  }
  // Visits draw from per-person streams, not from `rng`, so every day's
  // visits can be drawn before any day's contacts.
  std::vector<std::vector<Visit>> visits_per_day =
      visits_by_day(persons, anchor, has_anchor, locations, rng, days);
  std::vector<std::size_t> order;  // one location group's visit order
  for (std::vector<Visit>& by_person : visits_per_day) {
    const DayVisits grouped =
        group_by_location(by_person, locations.location_count(),
                          workers_for(by_person.size(), kScatterGrain));
    std::vector<Visit>().swap(by_person);  // grouped holds the day now
    const std::vector<Visit>& visits = grouped.visits;

    // --- Contact inference: sub-location co-occupancy for this day -------
    for (LocationId l = 0; l < locations.location_count(); ++l) {
      const std::uint64_t group_begin = grouped.offsets[l];
      const std::uint64_t group_end = grouped.offsets[l + 1];
      if (group_begin == group_end) continue;
      const Location& loc = locations.location(l);
      const std::size_t group_size = group_end - group_begin;
      // Shuffle visitors, then chunk into sub-locations of bounded capacity;
      // Erdos-Renyi within each chunk targets the context's mean degree.
      order.resize(group_size);
      std::iota(order.begin(), order.end(), group_begin);
      rng.shuffle(order.begin(), order.end());
      const std::size_t capacity = loc.sublocation_capacity;
      const double degree = target_degree(loc.type);
      for (std::size_t chunk = 0; chunk < group_size; chunk += capacity) {
        const std::size_t chunk_end = std::min(chunk + capacity, group_size);
        const std::size_t k = chunk_end - chunk;
        if (k < 2) continue;
        const double p_edge = std::min(1.0, degree / static_cast<double>(k - 1));
        for (std::size_t i = chunk; i < chunk_end; ++i) {
          for (std::size_t j = i + 1; j < chunk_end; ++j) {
            if (!rng.bernoulli(p_edge)) continue;
            const Visit& a = visits[order[i]];
            const Visit& b = visits[order[j]];
            const int overlap_start = std::max(a.start, b.start);
            const int overlap_end = std::min(a.end, b.end);
            if (overlap_end - overlap_start < 5) continue;  // <5 min: no contact
            builder.add_contact(
                a.person, b.person, static_cast<std::uint16_t>(overlap_start),
                static_cast<std::uint16_t>(overlap_end - overlap_start),
                a.person_activity, b.person_activity, 1.0f);
          }
        }
      }
    }
  }

  SyntheticRegion region;
  region.population =
      Population(config.region,
                 std::vector<std::uint32_t>(layout.fips.begin(), layout.fips.end()),
                 std::move(persons), std::move(households));
  region.network = std::move(builder).finalize();
  region.counties = std::move(layout);
  EPI_INFO("generated region " << config.region << ": "
                               << region.population.person_count() << " persons, "
                               << region.network.contact_count() << " contacts");
  return region;
}

std::shared_ptr<const SyntheticRegion> make_region(
    const RegionSource& source, const SynthPopConfig& config) {
  if (source) return source(config);
  return std::make_shared<const SyntheticRegion>(generate_region(config));
}

std::vector<RegionSizeRow> national_network_sizes(double scale,
                                                  std::uint64_t seed,
                                                  bool week_long) {
  std::vector<RegionSizeRow> rows;
  rows.reserve(us_state_count());
  for (const StateInfo& state : us_states()) {
    SynthPopConfig config;
    config.region = state.abbrev;
    config.scale = scale;
    config.seed = seed;
    config.week_long = week_long;
    const SyntheticRegion region = generate_region(config);
    rows.push_back(RegionSizeRow{state.abbrev,
                                 region.population.person_count(),
                                 region.network.contact_count()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const RegionSizeRow& a, const RegionSizeRow& b) {
              return a.persons < b.persons;
            });
  return rows;
}

}  // namespace epi
