#include "synthpop/activity.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace epi {

DaySchedule::DaySchedule(std::initializer_list<Activity> activities) {
  for (const Activity& a : activities) push_back(a);
}

void DaySchedule::push_back(const Activity& activity) {
  EPI_REQUIRE(size_ < kMaxActivitiesPerDay,
              "a day schedule holds at most " << kMaxActivitiesPerDay
                                              << " activities");
  items_[size_++] = activity;
}

namespace {

// Appends an activity with uniform jitter on start and duration, clipped
// to fit the day. Skips zero-duration results.
void add_activity(DaySchedule& day, ActivityType type, int start, int duration,
                  int jitter, Rng& rng) {
  const int jittered_start =
      start + static_cast<int>(rng.uniform_int(-jitter, jitter));
  const int jittered_duration =
      duration + static_cast<int>(rng.uniform_int(-jitter, jitter));
  const int clipped_start = std::clamp(jittered_start, 0, 1439);
  const int clipped_duration =
      std::clamp(jittered_duration, 0, 1440 - clipped_start);
  if (clipped_duration <= 0) return;
  // Keep the schedule non-overlapping: push the start past the previous end.
  int actual_start = clipped_start;
  if (!day.empty() && actual_start < day.back().end_minute()) {
    actual_start = day.back().end_minute();
    if (actual_start + clipped_duration > 1440) return;
  }
  day.push_back(Activity{type, static_cast<std::uint16_t>(actual_start),
                         static_cast<std::uint16_t>(clipped_duration)});
}

DaySchedule worker_weekday(Rng& rng) {
  DaySchedule day;
  add_activity(day, ActivityType::kWork, 9 * 60, 8 * 60, 45, rng);
  if (rng.bernoulli(0.25)) {
    add_activity(day, ActivityType::kShopping, 17 * 60 + 30, 40, 15, rng);
  }
  if (rng.bernoulli(0.20)) {
    add_activity(day, ActivityType::kOther, 18 * 60 + 30, 75, 20, rng);
  }
  return day;
}

DaySchedule student_weekday(Rng& rng) {
  DaySchedule day;
  add_activity(day, ActivityType::kSchool, 8 * 60, 7 * 60, 20, rng);
  if (rng.bernoulli(0.45)) {
    add_activity(day, ActivityType::kOther, 15 * 60 + 30, 90, 25, rng);
  }
  return day;
}

DaySchedule college_weekday(Rng& rng) {
  DaySchedule day;
  add_activity(day, ActivityType::kCollege, 9 * 60, 6 * 60, 60, rng);
  if (rng.bernoulli(0.5)) {
    add_activity(day, ActivityType::kOther, 16 * 60, 100, 30, rng);
  }
  if (rng.bernoulli(0.2)) {
    add_activity(day, ActivityType::kShopping, 18 * 60, 40, 10, rng);
  }
  return day;
}

DaySchedule preschool_weekday(Rng& rng) {
  DaySchedule day;
  // ~35% of preschoolers attend daycare (a School-context location).
  if (rng.bernoulli(0.35)) {
    add_activity(day, ActivityType::kSchool, 8 * 60 + 30, 7 * 60, 30, rng);
  } else if (rng.bernoulli(0.3)) {
    add_activity(day, ActivityType::kOther, 10 * 60, 80, 20, rng);
  }
  return day;
}

DaySchedule home_adult_weekday(Rng& rng) {
  DaySchedule day;
  if (rng.bernoulli(0.45)) {
    add_activity(day, ActivityType::kShopping, 10 * 60 + 30, 50, 25, rng);
  }
  if (rng.bernoulli(0.35)) {
    add_activity(day, ActivityType::kOther, 14 * 60, 90, 30, rng);
  }
  if (rng.bernoulli(0.04)) {
    add_activity(day, ActivityType::kReligion, 18 * 60, 80, 15, rng);
  }
  return day;
}

DaySchedule weekend_day(Occupation occupation, bool sunday, Rng& rng) {
  DaySchedule day;
  // A fifth of workers also work weekend shifts.
  if (occupation == Occupation::kWorker && rng.bernoulli(0.2)) {
    add_activity(day, ActivityType::kWork, 10 * 60, 6 * 60, 60, rng);
    return day;
  }
  if (sunday && rng.bernoulli(0.3)) {
    add_activity(day, ActivityType::kReligion, 10 * 60, 100, 20, rng);
  }
  if (rng.bernoulli(0.5)) {
    add_activity(day, ActivityType::kShopping, 13 * 60, 60, 30, rng);
  }
  if (rng.bernoulli(0.45)) {
    add_activity(day, ActivityType::kOther, 15 * 60 + 30, 110, 40, rng);
  }
  return day;
}

}  // namespace

WeekSchedule assign_week_schedule(Occupation occupation, Rng& rng) {
  WeekSchedule week;
  for (int day = 0; day < 5; ++day) {
    switch (occupation) {
      case Occupation::kWorker: week.days[day] = worker_weekday(rng); break;
      case Occupation::kStudent: week.days[day] = student_weekday(rng); break;
      case Occupation::kCollegeStudent:
        week.days[day] = college_weekday(rng);
        break;
      case Occupation::kPreschooler:
        week.days[day] = preschool_weekday(rng);
        break;
      case Occupation::kHomeOrRetired:
        week.days[day] = home_adult_weekday(rng);
        break;
    }
  }
  week.days[5] = weekend_day(occupation, /*sunday=*/false, rng);
  week.days[6] = weekend_day(occupation, /*sunday=*/true, rng);
  return week;
}

bool schedule_is_valid(const DaySchedule& day) {
  int previous_end = 0;
  for (const Activity& a : day) {
    if (a.start_minute < previous_end) return false;
    if (a.end_minute() > 1440) return false;
    if (a.duration_minutes == 0) return false;
    previous_end = a.end_minute();
  }
  return true;
}

std::uint32_t away_minutes(const DaySchedule& day) {
  std::uint32_t total = 0;
  for (const Activity& a : day) {
    if (a.type != ActivityType::kHome) total += a.duration_minutes;
  }
  return total;
}

}  // namespace epi
