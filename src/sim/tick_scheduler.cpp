#include "sim/tick_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace deepbat::sim {

std::size_t TickScheduler::add(double interval_s, double start_time,
                               double end_time, bool never_ticks) {
  DEEPBAT_CHECK(interval_s > 0.0,
                "TickScheduler: control interval must be positive");
  Slot slot;
  slot.interval = interval_s;
  slot.end = end_time;
  slot.done = never_ticks;
  slot.tick_index =
      static_cast<std::int64_t>(std::floor(start_time / interval_s));
  slots_.push_back(slot);
  const std::size_t idx = slots_.size() - 1;
  if (!never_ticks) {
    ++live_;
    push(idx);
  }
  return idx;
}

void TickScheduler::push(std::size_t i) {
  heap_.push_back(Entry{tick_time(i), i});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::optional<double> TickScheduler::next_group(
    std::vector<std::size_t>& group) {
  if (open_pending_ == 0) {
    if (heap_.empty()) return std::nullopt;
    open_t_ = heap_.front().t;
    open_.clear();
    while (!heap_.empty() && heap_.front().t == open_t_) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const std::size_t i = heap_.back().slot;
      heap_.pop_back();
      slots_[i].open = true;
      open_.push_back(i);
    }
    open_pending_ = open_.size();
  }
  group = open_;
  return open_t_;
}

void TickScheduler::complete_tick(std::size_t i) {
  DEEPBAT_CHECK(i < slots_.size() && slots_[i].open,
                "TickScheduler: complete_tick for a slot outside the open "
                "group");
  Slot& s = slots_[i];
  s.open = false;
  --open_pending_;
  ++s.tick_index;
  if (tick_time(i) > s.end) {
    s.done = true;
    --live_;
    return;
  }
  push(i);
}

void TickScheduler::restore_slot(std::size_t i, std::int64_t tick_index,
                                 bool done) {
  DEEPBAT_CHECK(i < slots_.size(),
                "TickScheduler: restore_slot index out of range");
  slots_[i].tick_index = tick_index;
  slots_[i].done = done;
}

void TickScheduler::rebuild() {
  heap_.clear();
  open_.clear();
  open_pending_ = 0;
  live_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].open = false;
    if (slots_[i].done) continue;
    ++live_;
    heap_.push_back(Entry{tick_time(i), i});
  }
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

}  // namespace deepbat::sim
