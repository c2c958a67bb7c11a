#include "synthpop/visits.hpp"

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace epi {

DayVisits group_by_location(const std::vector<Visit>& visits,
                            std::size_t location_count, std::size_t workers) {
  DayVisits day;
  day.visits.resize(visits.size());
  Visit* const out = day.visits.data();
  const std::size_t bad = stable_scatter(
      visits.size(), location_count, workers,
      [&visits](std::size_t i) -> std::size_t { return visits[i].location; },
      [&visits, out](std::size_t i, std::uint64_t slot) {
        out[slot] = visits[i];
      },
      day.offsets);
  EPI_REQUIRE(bad == visits.size(),
              "visit " << bad << " is at location " << visits[bad].location
                       << " of " << location_count);
  // Contact inference draws from one stream in this order, so it must be
  // the unique (location, person) order.
  for (std::size_t l = 0; l < location_count; ++l) {
    for (std::uint64_t i = day.offsets[l] + 1; i < day.offsets[l + 1]; ++i) {
      EPI_REQUIRE(out[i - 1].person < out[i].person,
                  "person " << out[i].person << " follows person "
                            << out[i - 1].person << " at location " << l
                            << ": visits must be distinct and in person order");
    }
  }
  return day;
}

}  // namespace epi
