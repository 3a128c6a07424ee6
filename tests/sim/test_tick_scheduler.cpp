// Calendar-queue TickScheduler vs a linear-scan reference model. The
// observable contract (DESIGN.md §15): groups form on the earliest pending
// instant, members arrive in ascending slot order, bitwise-equal instants
// share one group, and a slot retires once its next grid point passes its
// trace end. The calendar
// internals (bucket laps, overflow day-file, lazy stale deletion, shrink /
// grow rebuilds) must be invisible — every test here drives the real
// scheduler and the reference in lockstep and demands identical output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sim/tick_scheduler.hpp"

namespace deepbat::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The pre-calendar scheduler: O(slots) scans, obviously correct.
class ReferenceScheduler {
 public:
  std::size_t add(double interval, double start, double end,
                  bool never_ticks) {
    Slot s;
    s.interval = interval;
    s.end = end;
    s.done = never_ticks;
    s.k = static_cast<std::int64_t>(std::floor(start / interval));
    slots_.push_back(s);
    if (!never_ticks) ++live_;
    return slots_.size() - 1;
  }

  std::size_t live() const { return live_; }

  double tick_time(std::size_t i) const {
    return static_cast<double>(slots_[i].k) * slots_[i].interval;
  }

  std::optional<double> next_group(std::vector<std::size_t>& group) {
    group.clear();
    double tmin = kInf;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].done && tick_time(i) < tmin) tmin = tick_time(i);
    }
    if (!std::isfinite(tmin)) return std::nullopt;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].done && tick_time(i) == tmin) group.push_back(i);
    }
    return tmin;
  }

  void complete_tick(std::size_t i) {
    Slot& s = slots_[i];
    ++s.k;
    if (static_cast<double>(s.k) * s.interval > s.end) {
      s.done = true;
      --live_;
    }
  }

 private:
  struct Slot {
    std::int64_t k = 0;
    double interval = 0.0;
    double end = 0.0;
    bool done = false;
  };
  std::vector<Slot> slots_;
  std::size_t live_ = 0;
};

/// Drain both schedulers to exhaustion, asserting identical group times and
/// identical membership at every step. Returns the number of groups formed.
std::size_t drain_in_lockstep(TickScheduler& sched, ReferenceScheduler& ref,
                              std::size_t max_groups = 1u << 22) {
  std::vector<std::size_t> group;
  std::vector<std::size_t> ref_group;
  std::size_t groups = 0;
  while (groups < max_groups) {
    const auto t = sched.next_group(group);
    const auto rt = ref.next_group(ref_group);
    EXPECT_EQ(t.has_value(), rt.has_value());
    if (!t.has_value() || !rt.has_value()) break;
    // Group instants are BITWISE equal (==, not NEAR): both sides compute
    // tick_index * interval, never accumulate.
    EXPECT_EQ(*t, *rt) << "group " << groups;
    EXPECT_EQ(group, ref_group) << "group " << groups << " at t=" << *t;
    if (group != ref_group) return groups;  // diverged: stop the flood
    for (const std::size_t i : group) {
      EXPECT_EQ(sched.tick_time(i), *t);
      sched.complete_tick(i);
      ref.complete_tick(i);
    }
    EXPECT_EQ(sched.live(), ref.live());
    ++groups;
  }
  return groups;
}

// Intervals in 30/45/60-style ratios share grid points (90 = 3*30 = 2*45,
// 180 = all three): coinciding ticks must fold into ONE group with members
// in ascending slot order.
TEST(TickScheduler, MixedIntervalsSharingGridPointsFoldIntoOneGroup) {
  TickScheduler sched;
  ReferenceScheduler ref;
  const double intervals[] = {30.0, 45.0, 60.0, 30.0, 90.0};
  for (const double iv : intervals) {
    sched.add(iv, 0.0, 720.0, false);
    ref.add(iv, 0.0, 720.0, false);
  }

  // First group: t=0 is on every slot's grid, so all five fold together.
  std::vector<std::size_t> group;
  const auto t0 = sched.next_group(group);
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(*t0, 0.0);
  EXPECT_EQ(group, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  for (const std::size_t i : group) {
    sched.complete_tick(i);
    ref.complete_tick(i);
  }

  drain_in_lockstep(sched, ref);
  EXPECT_EQ(sched.live(), 0u);
}

// never_ticks slots (empty traces) interleaved with live ones: born
// retired, never grouped, never counted live — and slot indices of the
// live population are preserved verbatim in group membership.
TEST(TickScheduler, NeverTicksSlotsInterleavedWithLiveOnes) {
  TickScheduler sched;
  ReferenceScheduler ref;
  std::vector<std::size_t> live_slots;
  for (std::size_t i = 0; i < 64; ++i) {
    const bool never = (i % 3 == 1);
    const double iv = 10.0 + static_cast<double>(i % 5);
    sched.add(iv, 0.0, 200.0, never);
    ref.add(iv, 0.0, 200.0, never);
    if (!never) live_slots.push_back(i);
    EXPECT_EQ(sched.done(i), never);
  }
  EXPECT_EQ(sched.live(), live_slots.size());

  // Every group member must come from the live set.
  std::vector<std::size_t> group;
  const auto t0 = sched.next_group(group);
  ASSERT_TRUE(t0.has_value());
  for (const std::size_t i : group) {
    EXPECT_NE(std::find(live_slots.begin(), live_slots.end(), i),
              live_slots.end());
  }
  std::vector<std::size_t> ref_group;
  ref.next_group(ref_group);
  EXPECT_EQ(group, ref_group);

  drain_in_lockstep(sched, ref);
  EXPECT_EQ(sched.live(), 0u);
}

// All-never populations have no first group at all.
TEST(TickScheduler, AllNeverTicksYieldsNoGroup) {
  TickScheduler sched;
  for (int i = 0; i < 5; ++i) sched.add(30.0, 0.0, 100.0, true);
  EXPECT_EQ(sched.live(), 0u);
  std::vector<std::size_t> group;
  EXPECT_FALSE(sched.next_group(group).has_value());
}

// Mass retirement: a big short-lived population retires early (forcing the
// shrink rebuild), leaving a handful of long-horizon stragglers whose
// instants sit many empty bucket laps ahead. The group sequence must stay
// exact through the sparse phase.
TEST(TickScheduler, GroupsSurviveMassRetirement) {
  TickScheduler sched;
  ReferenceScheduler ref;
  // 2000 slots ticking every ~1 s but ending at 5 s: they retire fast.
  for (std::size_t i = 0; i < 2000; ++i) {
    const double iv = 1.0 + static_cast<double>(i % 7) * 0.125;
    sched.add(iv, 0.0, 5.0, false);
    ref.add(iv, 0.0, 5.0, false);
  }
  // Three stragglers on widely spaced grids, far beyond the dense phase.
  for (const double iv : {311.0, 407.0, 997.0}) {
    sched.add(iv, 0.0, 4000.0, false);
    ref.add(iv, 0.0, 4000.0, false);
  }
  drain_in_lockstep(sched, ref);
  EXPECT_EQ(sched.live(), 0u);
  // Fully drained: no group remains.
  std::vector<std::size_t> group;
  EXPECT_FALSE(sched.next_group(group).has_value());
}

// Calendar bucket rollover: intervals spanning four orders of magnitude
// make the long-interval slots land beyond the current lap (overflow
// day-file) while the short ones churn the in-lap buckets; once the short
// slots retire, the cursor must jump laps via overflow consolidation
// instead of walking empty buckets — and the group sequence must not
// notice.
TEST(TickScheduler, BucketRolloverThroughOverflowConsolidation) {
  TickScheduler sched;
  ReferenceScheduler ref;
  const struct {
    double interval, end;
  } defs[] = {
      {0.05, 2.0},     // dense: sets the bucket width small
      {0.08, 2.0},     //
      {1.0, 50.0},     // medium
      {25.0, 500.0},   // beyond the first laps: overflow resident
      {130.0, 900.0},  // multiple consolidation jumps
  };
  for (const auto& d : defs) {
    sched.add(d.interval, 0.0, d.end, false);
    ref.add(d.interval, 0.0, d.end, false);
  }
  drain_in_lockstep(sched, ref);
  EXPECT_EQ(sched.live(), 0u);
}

// Late add() while ticking is in progress, including a start_time behind
// the cursor (forces the pre-lap re-anchor rebuild).
TEST(TickScheduler, LateAddBehindTheCursorReanchors) {
  TickScheduler sched;
  ReferenceScheduler ref;
  sched.add(10.0, 0.0, 100.0, false);
  ref.add(10.0, 0.0, 100.0, false);

  std::vector<std::size_t> group, ref_group;
  // Advance a few groups so the calendar is built and the cursor moved.
  for (int step = 0; step < 4; ++step) {
    const auto t = sched.next_group(group);
    const auto rt = ref.next_group(ref_group);
    ASSERT_TRUE(t.has_value() && rt.has_value());
    ASSERT_EQ(*t, *rt);
    for (const std::size_t i : group) {
      sched.complete_tick(i);
      ref.complete_tick(i);
    }
  }
  // New slot whose first grid instant precedes the cursor.
  sched.add(7.0, 0.0, 60.0, false);
  ref.add(7.0, 0.0, 60.0, false);
  drain_in_lockstep(sched, ref);
}

// Randomized lockstep: mixed interval families (power-of-two steps give
// plenty of bitwise-coinciding instants, odd ones give near-misses),
// staggered starts and ends, never_ticks sprinkled in. Parameterized by
// population size.
class TickSchedulerRandomized
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TickSchedulerRandomized, MatchesLinearScanReference) {
  const std::size_t n = GetParam();
  TickScheduler sched;
  ReferenceScheduler ref;
  sched.reserve(n);
  Rng rng(n * 2654435761u + 17u);
  const double interval_menu[] = {0.25, 0.5, 1.0, 2.0, 4.0, 0.3, 1.7, 5.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double iv =
        interval_menu[static_cast<std::size_t>(rng.uniform(0.0, 8.0)) % 8];
    const double start = rng.uniform(0.0, 12.0);
    const double end = start + rng.uniform(0.0, 40.0);
    const bool never = rng.uniform() < 0.1;
    sched.add(iv, start, end, never);
    ref.add(iv, start, end, never);
  }
  drain_in_lockstep(sched, ref);
  EXPECT_EQ(sched.live(), 0u);
  EXPECT_EQ(ref.live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Populations, TickSchedulerRandomized,
                         ::testing::Values(std::size_t{3}, std::size_t{40},
                                           std::size_t{1000}),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "Slots" + std::to_string(i.param);
                         });

// 100k-slot scale: the reference is O(slots) per group so lockstep is
// unaffordable here — instead check the structural invariants (group times
// strictly increase, members ascend, per-slot tick counts match the
// closed-form grid count) over a full drain. never_ticks slots are
// interleaved throughout, and the staggered intervals guarantee both
// shared grid points within a family and thousands of distinct instants
// across families (bucket rollover at scale).
TEST(TickSchedulerScale, HundredThousandSlotsDrainExactly) {
  constexpr std::size_t kSlots = 100000;
  TickScheduler sched;
  sched.reserve(kSlots);
  std::vector<std::int64_t> expected_ticks(kSlots, 0);
  for (std::size_t i = 0; i < kSlots; ++i) {
    const bool never = (i % 3 == 2);
    const double iv = 1.0 + static_cast<double>(i % 1000) / 1000.0;
    const double start = static_cast<double>(i % 10) * 0.37;
    const double end = start + 6.0;
    sched.add(iv, start, end, never);
    if (!never) {
      // Closed-form tick count with the scheduler's own arithmetic:
      // k from floor(start/iv) while k*iv <= end.
      for (std::int64_t k =
               static_cast<std::int64_t>(std::floor(start / iv));
           static_cast<double>(k) * iv <= end; ++k) {
        ++expected_ticks[i];
      }
    }
  }
  EXPECT_EQ(sched.live(), kSlots - kSlots / 3);

  std::vector<std::int64_t> seen_ticks(kSlots, 0);
  std::vector<std::size_t> group;
  double prev_t = -kInf;
  std::size_t groups = 0;
  while (const auto t = sched.next_group(group)) {
    ASSERT_GT(*t, prev_t) << "group times must strictly increase";
    ASSERT_FALSE(group.empty());
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (j > 0) {
        ASSERT_LT(group[j - 1], group[j]) << "members ascend";
      }
      ASSERT_EQ(sched.tick_time(group[j]), *t);
      ++seen_ticks[group[j]];
      sched.complete_tick(group[j]);
    }
    prev_t = *t;
    ++groups;
  }
  EXPECT_EQ(sched.live(), 0u);
  // 1000 interval classes x 10 start phases share instants heavily: the
  // drain folds ~450k ticks into a few thousand groups.
  EXPECT_GT(groups, 1000u);
  EXPECT_EQ(seen_ticks, expected_ticks);
}

}  // namespace
}  // namespace deepbat::sim
