#pragma once
// Global-tick-grid scheduling for the sharded multi-tenant runtime. Every
// tenant's control ticks live at k * control_interval_s — computed by
// MULTIPLICATION, never by accumulation — so two tenants sharing an
// interval produce bitwise-equal tick instants no matter which shard (or
// solo replay) computes them. The scheduler owns only the tick arithmetic:
// who ticks when and which slots fold into one tick group.
// Execution state (simulators, controllers, encoders) lives in
// RuntimeShard.
//
// Internally the pending ticks live in a hierarchical calendar queue
// (DESIGN.md §15): an array of B buckets of width w seconds, addressed by
// absolute bucket index floor(t / w) masked into the array, plus an
// overflow day-file for events beyond the current lap of B buckets. The
// cursor walks buckets forward in time; complete_tick() re-files a slot at
// its next grid instant and leaves the old entry behind as a stale record
// that the next scan drops (lazy deletion). Overflow is consolidated
// lazily — only when the cursor exhausts its lap — and the queue geometry
// (w ~ one expected tick event, B ~ live slots) is rebuilt when the live
// population grows or shrinks past its sizing band, so next_group() and
// complete_tick() stay O(1) amortized per tick event at any slot count
// instead of the pre-calendar O(slots) linear scan.
//
// The observable contract is unchanged from the linear-scan scheduler:
// groups form on the earliest pending instant, members are reported in
// ascending slot order, and equal instants are BITWISE equal doubles (so
// they always land in one bucket and one group).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace deepbat::sim {

class TickScheduler {
 public:
  /// Register one tenant; returns its slot index. The first tick is the
  /// grid instant at or immediately before `start_time` (a trace starting
  /// on the grid keeps its historical first tick). A tenant with
  /// `never_ticks` (empty trace) is born retired.
  std::size_t add(double interval_s, double start_time, double end_time,
                  bool never_ticks);

  /// Size hint for bulk registration (reserves the slot table).
  void reserve(std::size_t slots) { slots_.reserve(slots); }

  std::size_t size() const { return slots_.size(); }

  /// Slots that are still live (not retired / never_ticks).
  std::size_t live() const { return live_; }

  /// Next tick instant of slot i: tick_index * interval.
  double tick_time(std::size_t i) const {
    const Slot& s = slots_[i];
    return static_cast<double>(s.tick_index) * s.interval;
  }

  bool done(std::size_t i) const { return slots_[i].done; }

  /// Next tick index of slot i (checkpoint save: the slot's whole progress
  /// is this index plus the `done` flag).
  std::int64_t tick_index(std::size_t i) const {
    return slots_[i].tick_index;
  }

  /// Form the next tick group: the earliest pending tick instant across
  /// all live slots, and every slot whose next tick is bitwise-equal to
  /// it. `group` is overwritten, in slot order. Returns std::nullopt when
  /// every slot is retired. (Non-const: the calendar cursor advances.)
  std::optional<double> next_group(std::vector<std::size_t>& group);

  /// Slot i ticked at its current grid point: advance to the next one and
  /// retire the slot once that passes its trace end.
  void complete_tick(std::size_t i);

  /// Checkpoint restore (sim/checkpoint.hpp): overwrite slot i's progress —
  /// the next tick index and the retirement flag — with saved state. The
  /// slot must already be registered via add() with its original
  /// interval/end/never_ticks; call reset_calendar() once after the last
  /// restore_slot() and before the next next_group().
  void restore_slot(std::size_t i, std::int64_t tick_index, bool done);

  /// Drop the calendar and recompute the live population from the slot
  /// table. The calendar (geometry, cursor, overflow) is derived state —
  /// none of it is observable through next_group()'s contract — so the next
  /// next_group() simply rebuilds it lazily from the restored slots.
  void reset_calendar();

 private:
  struct Slot {
    std::int64_t tick_index = 0;  // next tick = tick_index * interval
    double interval = 0.0;
    double end = 0.0;
    bool done = false;
  };

  /// One pending tick: the instant is recorded alongside the slot so a
  /// re-filed slot's abandoned entry is recognizably stale
  /// (entry.t != tick_time(slot) or the slot retired).
  struct Event {
    double t = 0.0;
    std::uint32_t slot = 0;
  };

  bool stale(const Event& e) const {
    const Slot& s = slots_[e.slot];
    return s.done || e.t != static_cast<double>(s.tick_index) * s.interval;
  }

  /// Absolute bucket index of instant t (bucket b covers
  /// [b * width_, (b + 1) * width_)).
  std::int64_t abs_bucket(double t) const;

  /// File one live event into its bucket or the overflow list. May rewind
  /// the cursor (and trigger a rebuild) when t precedes the current lap —
  /// only possible through add() after ticking started.
  void insert(const Event& e);

  /// Rebuild the calendar from the current live population: recompute the
  /// bucket width from the live tick rate, resize the bucket array, and
  /// re-file every live event. O(live + buckets).
  void rebuild();

  /// Move overflow events that fall inside the (new) lap into buckets and
  /// advance the lap window. Called when the cursor exhausts its lap; when
  /// every pending event is far in the future, jumps the lap straight to
  /// the earliest overflow instant instead of walking empty buckets.
  void consolidate();

  std::vector<Slot> slots_;
  std::size_t live_ = 0;

  // Calendar geometry. Built lazily on the first next_group() so bulk
  // add() runs size the queue once; buckets_.empty() means "not built".
  std::vector<std::vector<Event>> buckets_;
  std::size_t bucket_mask_ = 0;     // buckets_.size() - 1 (power of two)
  double width_ = 1.0;              // seconds per bucket
  std::int64_t cursor_ = 0;         // absolute index of the current bucket
  std::int64_t lap_end_ = 0;        // first absolute index beyond this lap
  std::vector<Event> overflow_;     // events at abs_bucket >= lap_end_
  double overflow_min_ = 0.0;       // min instant in overflow_ (valid when
                                    // overflow_ is non-empty)
  double rate_sum_ = 0.0;           // sum over live slots of 1 / interval
};

}  // namespace deepbat::sim
