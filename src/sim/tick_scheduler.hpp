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
// Pending ticks live in a binary min-heap of (instant, slot) entries, one
// per live slot, ordered by instant then slot (DESIGN.md §15). next_group()
// pops every entry at the earliest instant — they leave in ascending slot
// order — and complete_tick() pushes the slot's next grid point, so a
// control tick costs O(log live slots).
//
// Groups form on the earliest pending instant, members are reported in
// ascending slot order, and equal instants are BITWISE equal doubles.

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

  /// Size hint for bulk registration (reserves the slot table and heap).
  void reserve(std::size_t slots) {
    slots_.reserve(slots);
    heap_.reserve(slots);
  }

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
  /// every slot is retired. The group stays open until each member's
  /// complete_tick() has run; until then every call returns the same
  /// instant and members, so a caller may peek a group and leave it for
  /// later.
  std::optional<double> next_group(std::vector<std::size_t>& group);

  /// Slot i, a member of the open group, ticked at its current grid point:
  /// advance to the next one and retire the slot once that passes its
  /// trace end. Throws deepbat::Error when i is not a pending member of the
  /// open group.
  void complete_tick(std::size_t i);

  /// Checkpoint restore (sim/checkpoint.hpp): overwrite slot i's progress —
  /// the next tick index and the retirement flag — with saved state. The
  /// slot must already be registered via add() with its original
  /// interval/end/never_ticks; call rebuild() once after the last
  /// restore_slot() and before the next next_group().
  void restore_slot(std::size_t i, std::int64_t tick_index, bool done);

  /// Drop the heap and any open group, and rebuild both the heap and the
  /// live count from the slot table. The heap is derived state, so the
  /// next next_group() re-forms whatever group the restored slots hold.
  void rebuild();

 private:
  struct Slot {
    std::int64_t tick_index = 0;  // next tick = tick_index * interval
    double interval = 0.0;
    double end = 0.0;
    bool done = false;
    bool open = false;  // popped into the open group, not yet completed
  };

  struct Entry {
    double t = 0.0;
    std::size_t slot = 0;
  };

  /// Heap order: std::*_heap keep the greatest element on top, so "later"
  /// (later instant, then higher slot) compares as less.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t > b.t || (a.t == b.t && a.slot > b.slot);
    }
  };

  void push(std::size_t i);

  std::vector<Slot> slots_;
  std::vector<Entry> heap_;        // one entry per live slot outside open_
  std::vector<std::size_t> open_;  // open group, ascending slot order
  double open_t_ = 0.0;
  std::size_t open_pending_ = 0;   // open members not yet completed
  std::size_t live_ = 0;
};

}  // namespace deepbat::sim
