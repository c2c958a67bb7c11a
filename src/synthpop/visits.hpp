// One day's visits, grouped by location: the input of the generator's
// co-occupancy contact inference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "network/contact_network.hpp"  // ActivityType, PersonId
#include "synthpop/locations.hpp"       // LocationId

namespace epi {

/// One person's presence at a location during one day.
struct Visit {
  LocationId location;
  PersonId person;
  std::uint16_t start;
  std::uint16_t end;
  ActivityType person_activity;  // what this person is doing there
};

/// Persons per worker when visits are synthesized by person range.
inline constexpr std::size_t kVisitGrain = std::size_t{1} << 16;

/// A day's visits in (location, person) order: location l's visits are
/// visits[offsets[l] .. offsets[l + 1]).
struct DayVisits {
  std::vector<Visit> visits;
  std::vector<std::uint64_t> offsets;  // location_count + 1 entries
};

/// Groups `visits`, given in ascending person order, by location with a
/// stable scatter on `workers` threads (util/parallel.hpp), so persons stay
/// ascending inside each location at any worker count. That is the order
/// a sort by (location, person) gives only if no person visits one
/// location twice in a day. Every day template holds distinct activity
/// types and location pools are per type, so that holds; it is checked
/// here, and a repeat or a person out of order throws Error, as does a
/// location id of location_count or more.
DayVisits group_by_location(const std::vector<Visit>& visits,
                            std::size_t location_count, std::size_t workers);

}  // namespace epi
