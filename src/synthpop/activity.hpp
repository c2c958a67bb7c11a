// Weekly activity sequences (paper Appendix C).
//
// Each synthetic person gets a week-long activity sequence alpha(p): a list
// of (activity type, start time, duration) entries per day. The paper fuses
// NHTS/ATUS/MTUS survey data with Fitted Values Matching for adults and
// CART for children; we replace that statistical machinery with
// occupation-conditioned stochastic templates that reproduce the same
// structure — workers commute to Work on weekdays, K-12 students attend
// School, errands and leisure fill evenings and weekends, Religion
// concentrates on day 6 (Sunday) — because the contact network's shape
// depends on this structure, not on the survey fitting method.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "network/contact_network.hpp"  // ActivityType
#include "synthpop/population.hpp"      // Occupation
#include "util/rng.hpp"

namespace epi {

/// One activity instance within a day.
struct Activity {
  ActivityType type = ActivityType::kHome;
  std::uint16_t start_minute = 0;
  std::uint16_t duration_minutes = 0;

  std::uint16_t end_minute() const {
    return static_cast<std::uint16_t>(start_minute + duration_minutes);
  }
};

/// Most activities a schedule template puts in one day.
inline constexpr std::size_t kMaxActivitiesPerDay = 3;

/// Activities of one person for one day, ordered, non-overlapping; gaps
/// are implicitly at Home. Held inline, so a schedule allocates nothing:
/// adding a fourth activity throws Error.
class DaySchedule {
 public:
  DaySchedule() = default;
  DaySchedule(std::initializer_list<Activity> activities);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const Activity& back() const { return items_[size_ - 1]; }
  const Activity* begin() const { return items_.data(); }
  const Activity* end() const { return items_.data() + size_; }
  void push_back(const Activity& activity);

 private:
  std::array<Activity, kMaxActivitiesPerDay> items_{};
  std::uint8_t size_ = 0;
};

/// A week of schedules. Day 0 = Monday ... day 6 = Sunday; Wednesday
/// (day 2) is the paper's "typical day" used for the network projection.
struct WeekSchedule {
  std::array<DaySchedule, 7> days;
};

inline constexpr int kWednesday = 2;

/// Samples a week-long activity sequence for one person. Deterministic
/// given the Rng state.
WeekSchedule assign_week_schedule(Occupation occupation, Rng& rng);

/// Validates a day schedule: ordered, non-overlapping, within 24h.
bool schedule_is_valid(const DaySchedule& day);

/// Total minutes of non-home activity in a day.
std::uint32_t away_minutes(const DaySchedule& day);

}  // namespace epi
