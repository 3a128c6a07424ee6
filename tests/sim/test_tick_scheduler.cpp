// Heap TickScheduler vs a linear-scan reference model. The observable
// contract (DESIGN.md §15): groups form on the earliest pending instant,
// members arrive in ascending slot order, bitwise-equal instants share one
// group, a slot retires once its next grid point passes its trace end, and
// a group stays open — next_group() returns it again — until each member's
// complete_tick() has run. The lockstep tests drive the real scheduler and
// the reference together and demand identical output; the populations
// mix dense and sparse phases, late adds and mass retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/tick_scheduler.hpp"

namespace deepbat::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A linear-scan scheduler: O(slots) scans, obviously correct.
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

// Mass retirement: a big short-lived population retires early, leaving a
// handful of long-horizon stragglers far beyond the dense phase. The group
// sequence must stay exact through the sparse phase.
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

// Intervals spanning four orders of magnitude: the short ones churn the
// front of the queue while the long ones wait far ahead, and once the
// short slots retire the next groups are hundreds of seconds apart. The
// group sequence must not notice.
TEST(TickScheduler, BucketRolloverThroughOverflowConsolidation) {
  TickScheduler sched;
  ReferenceScheduler ref;
  const struct {
    double interval, end;
  } defs[] = {
      {0.05, 2.0},     // dense: many short groups
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

// Late add() while ticking is in progress, with a first tick earlier than
// every pending one.
TEST(TickScheduler, LateAddBehindTheCursorReanchors) {
  TickScheduler sched;
  ReferenceScheduler ref;
  sched.add(10.0, 0.0, 100.0, false);
  ref.add(10.0, 0.0, 100.0, false);

  std::vector<std::size_t> group, ref_group;
  // Advance a few groups first.
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
  // New slot whose first grid instant precedes every pending tick.
  sched.add(7.0, 0.0, 60.0, false);
  ref.add(7.0, 0.0, 60.0, false);
  drain_in_lockstep(sched, ref);
}

// The open-group contract a deferred quantum relies on
// (RuntimeShard::run_quantum peeks a group beyond its limit and leaves it):
// next_group() returns the same instant and members until every member has
// completed, even when only some have, and only then moves on.
TEST(TickScheduler, OpenGroupRepeatsUntilEveryMemberCompletes) {
  TickScheduler sched;
  ReferenceScheduler ref;
  for (const double iv : {30.0, 45.0, 30.0, 60.0}) {
    sched.add(iv, 0.0, 400.0, false);
    ref.add(iv, 0.0, 400.0, false);
  }
  std::vector<std::size_t> group, again, ref_group;
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE("group " + std::to_string(step));
    const auto t = sched.next_group(group);
    const auto rt = ref.next_group(ref_group);
    ASSERT_TRUE(t.has_value() && rt.has_value());
    EXPECT_EQ(*t, *rt);
    EXPECT_EQ(group, ref_group);

    const auto peek = sched.next_group(again);
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(*peek, *t);
    EXPECT_EQ(again, group);

    for (std::size_t k = 0; k + 1 < group.size(); ++k) {
      sched.complete_tick(group[k]);
      ref.complete_tick(group[k]);
    }
    const auto partial = sched.next_group(again);
    ASSERT_TRUE(partial.has_value());
    EXPECT_EQ(*partial, *t);
    EXPECT_EQ(again, group);
    sched.complete_tick(group.back());
    ref.complete_tick(group.back());
  }
  drain_in_lockstep(sched, ref);
  EXPECT_EQ(sched.live(), 0u);
}

// A checkpoint taken while a group is open (a deferred quantum) holds the
// members' un-advanced progress. Restoring it — into a fresh scheduler that
// has a stale group of its own open, and into the saving scheduler itself
// — and rebuilding must re-form exactly the open group, then continue with
// the uninterrupted sequence.
TEST(TickScheduler, RebuildWithAGroupOpenReformsThatGroup) {
  const auto build = [] {
    TickScheduler s;
    s.add(30.0, 0.0, 400.0, false);
    s.add(45.0, 10.0, 380.0, false);
    s.add(30.0, 5.0, 90.0, false);  // retires partway through
    s.add(60.0, 0.0, 350.0, false);
    s.add(30.0, 0.0, 0.0, true);  // never ticks
    return s;
  };
  TickScheduler live = build();
  TickScheduler uninterrupted = build();
  std::vector<std::size_t> group, ref_group;
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(live.next_group(group).has_value());
    ASSERT_TRUE(uninterrupted.next_group(ref_group).has_value());
    for (const std::size_t i : group) {
      live.complete_tick(i);
      uninterrupted.complete_tick(i);
    }
  }
  std::vector<std::size_t> open;
  const auto t_open = live.next_group(open);
  ASSERT_TRUE(t_open.has_value());

  TickScheduler restored = build();
  std::vector<std::size_t> stale;
  const auto t_stale = restored.next_group(stale);
  ASSERT_TRUE(t_stale.has_value());
  ASSERT_NE(*t_stale, *t_open);
  for (std::size_t i = 0; i < live.size(); ++i) {
    restored.restore_slot(i, live.tick_index(i), live.done(i));
  }
  restored.rebuild();
  EXPECT_EQ(restored.live(), live.live());

  for (std::size_t i = 0; i < live.size(); ++i) {
    live.restore_slot(i, live.tick_index(i), live.done(i));
  }
  live.rebuild();

  std::vector<std::size_t> ga, gb, gc;
  for (;;) {
    const auto ta = live.next_group(ga);
    const auto tb = restored.next_group(gb);
    const auto tc = uninterrupted.next_group(gc);
    ASSERT_EQ(ta.has_value(), tb.has_value());
    ASSERT_EQ(ta.has_value(), tc.has_value());
    if (!ta.has_value()) break;
    EXPECT_EQ(*ta, *tc);
    EXPECT_EQ(*tb, *tc);
    EXPECT_EQ(ga, gc);
    EXPECT_EQ(gb, gc);
    for (const std::size_t i : gc) {
      live.complete_tick(i);
      restored.complete_tick(i);
      uninterrupted.complete_tick(i);
    }
  }
  EXPECT_EQ(live.live(), 0u);
  EXPECT_EQ(restored.live(), 0u);
}

// complete_tick() is only legal for a pending member of the open group: a
// call before any group is open, a second call for one member, a call for
// a non-member and an out-of-range slot all throw and change nothing.
TEST(TickScheduler, CompleteTickOutsideTheOpenGroupThrows) {
  TickScheduler sched;
  sched.add(30.0, 0.0, 100.0, false);
  sched.add(45.0, 0.0, 100.0, false);
  EXPECT_THROW(sched.complete_tick(0), Error);
  EXPECT_EQ(sched.tick_index(0), 0);

  std::vector<std::size_t> group;
  const auto t0 = sched.next_group(group);
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(*t0, 0.0);
  ASSERT_EQ(group, (std::vector<std::size_t>{0, 1}));
  sched.complete_tick(0);
  EXPECT_THROW(sched.complete_tick(0), Error);
  EXPECT_EQ(sched.tick_index(0), 1);
  sched.complete_tick(1);
  EXPECT_THROW(sched.complete_tick(1), Error);

  const auto t1 = sched.next_group(group);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(*t1, 30.0);
  ASSERT_EQ(group, (std::vector<std::size_t>{0}));
  EXPECT_THROW(sched.complete_tick(1), Error);
  EXPECT_THROW(sched.complete_tick(7), Error);
  EXPECT_EQ(sched.tick_index(1), 1);
  sched.complete_tick(0);
  const auto t2 = sched.next_group(group);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(*t2, 45.0);
  EXPECT_EQ(group, (std::vector<std::size_t>{1}));
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
// across families.
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
