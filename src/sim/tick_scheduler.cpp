#include "sim/tick_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace deepbat::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Bucket-count band: at least 8 buckets so tiny fleets skip the resize
// churn, at most 2^21 so a million-tenant calendar stays ~tens of MB.
constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

}  // namespace

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
    rate_sum_ += 1.0 / interval_s;
    if (!buckets_.empty()) {
      // Calendar already built (ticking started): file the newcomer and
      // regrow the geometry once the population doubles past it.
      insert(Event{tick_time(idx), static_cast<std::uint32_t>(idx)});
      if (live_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
        rebuild();
      }
    }
  }
  return idx;
}

std::int64_t TickScheduler::abs_bucket(double t) const {
  return static_cast<std::int64_t>(std::floor(t / width_));
}

void TickScheduler::insert(const Event& e) {
  const std::int64_t a = abs_bucket(e.t);
  if (a >= lap_end_) {
    if (overflow_.empty() || e.t < overflow_min_) overflow_min_ = e.t;
    overflow_.push_back(e);
    return;
  }
  const std::int64_t lap_start =
      lap_end_ - static_cast<std::int64_t>(buckets_.size());
  if (a < lap_start) {
    // Pre-lap instant: only reachable through add() after ticking started
    // with a start_time behind the cursor. Re-anchor the whole calendar.
    rebuild();
    return;
  }
  buckets_[static_cast<std::size_t>(a) & bucket_mask_].push_back(e);
  if (a < cursor_) cursor_ = a;
}

void TickScheduler::rebuild() {
  // One expected tick event per bucket: width = 1 / (fleet tick rate).
  // Clamped so abs_bucket() stays in int64 range for any sane horizon.
  width_ = std::clamp(1.0 / std::max(rate_sum_, 1e-12), 1e-9, 1e9);
  std::size_t want = kMinBuckets;
  while (want < live_ && want < kMaxBuckets) want <<= 1;
  buckets_.assign(want, {});
  bucket_mask_ = want - 1;
  overflow_.clear();
  overflow_min_ = kInf;
  // Anchor the lap at the earliest pending instant, then file every live
  // slot's event. O(slots + buckets); triggered only when the live
  // population crosses its sizing band, so amortized O(1) per tick event.
  double tmin = kInf;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].done && tick_time(i) < tmin) tmin = tick_time(i);
  }
  cursor_ = std::isfinite(tmin) ? abs_bucket(tmin) : 0;
  lap_end_ = cursor_ + static_cast<std::int64_t>(want);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].done) continue;
    const Event e{tick_time(i), static_cast<std::uint32_t>(i)};
    const std::int64_t a = abs_bucket(e.t);
    if (a < lap_end_) {
      buckets_[static_cast<std::size_t>(a) & bucket_mask_].push_back(e);
    } else {
      if (e.t < overflow_min_) overflow_min_ = e.t;
      overflow_.push_back(e);
    }
  }
}

void TickScheduler::consolidate() {
  // The cursor exhausted its lap, so every pending event sits in the
  // overflow file (bucket entries are filed in-lap only, and overflow
  // entries are never stale — staling happens via complete_tick(), which
  // only touches the current group's bucket-resident events).
  DEEPBAT_CHECK(!overflow_.empty(),
                "TickScheduler: calendar lost its pending events");
  // Jump straight to the earliest overflow instant instead of walking
  // empty bucket laps — with sparse populations (most slots retired) the
  // next event can be many laps ahead.
  cursor_ = abs_bucket(overflow_min_);
  lap_end_ = cursor_ + static_cast<std::int64_t>(buckets_.size());
  double kept_min = kInf;
  std::size_t kept = 0;
  for (const Event& e : overflow_) {
    const std::int64_t a = abs_bucket(e.t);
    if (a < lap_end_) {
      buckets_[static_cast<std::size_t>(a) & bucket_mask_].push_back(e);
    } else {
      if (e.t < kept_min) kept_min = e.t;
      overflow_[kept++] = e;
    }
  }
  overflow_.resize(kept);
  overflow_min_ = kept_min;
}

std::optional<double> TickScheduler::next_group(
    std::vector<std::size_t>& group) {
  if (live_ == 0) return std::nullopt;
  if (buckets_.empty()) rebuild();  // first group: size the calendar once
  for (;;) {
    if (cursor_ == lap_end_) consolidate();
    std::vector<Event>& bucket =
        buckets_[static_cast<std::size_t>(cursor_) & bucket_mask_];
    // Drop stale entries (slots re-filed or retired by complete_tick) and
    // find the earliest in-lap instant in this bucket. A lap maps each
    // in-window absolute index to a distinct bucket, so every non-stale
    // entry here shares abs_bucket == cursor_.
    double tmin = kInf;
    for (std::size_t k = 0; k < bucket.size();) {
      if (stale(bucket[k])) {
        bucket[k] = bucket.back();
        bucket.pop_back();
        continue;
      }
      if (bucket[k].t < tmin) tmin = bucket[k].t;
      ++k;
    }
    if (tmin < kInf) {
      group.clear();
      for (const Event& e : bucket) {
        if (e.t == tmin) group.push_back(e.slot);
      }
      // Slot order, deduplicated: a sub-ulp interval can re-file a slot at
      // a bitwise-identical instant next to its not-yet-dropped old entry.
      std::sort(group.begin(), group.end());
      group.erase(std::unique(group.begin(), group.end()), group.end());
      return tmin;
    }
    ++cursor_;
  }
}

void TickScheduler::complete_tick(std::size_t i) {
  Slot& s = slots_[i];
  ++s.tick_index;
  const double t = tick_time(i);
  if (t > s.end) {
    s.done = true;  // the abandoned entry is dropped as stale on next scan
    --live_;
    rate_sum_ -= 1.0 / s.interval;
    // Shrink the calendar once the live population falls far below the
    // bucket count, so sparse end-of-run phases (most slots retired) never
    // walk a fleet-sized bucket array per remaining event.
    if (!buckets_.empty() && buckets_.size() > kMinBuckets &&
        live_ * 8 < buckets_.size()) {
      rebuild();
    }
    return;
  }
  if (!buckets_.empty()) {
    insert(Event{t, static_cast<std::uint32_t>(i)});
  }
}

void TickScheduler::restore_slot(std::size_t i, std::int64_t tick_index,
                                 bool done) {
  DEEPBAT_CHECK(i < slots_.size(),
                "TickScheduler: restore_slot index out of range");
  slots_[i].tick_index = tick_index;
  slots_[i].done = done;
}

void TickScheduler::reset_calendar() {
  buckets_.clear();
  bucket_mask_ = 0;
  width_ = 1.0;
  cursor_ = 0;
  lap_end_ = 0;
  overflow_.clear();
  overflow_min_ = 0.0;
  live_ = 0;
  rate_sum_ = 0.0;
  for (const Slot& s : slots_) {
    if (s.done) continue;
    ++live_;
    rate_sum_ += 1.0 / s.interval;
  }
}

}  // namespace deepbat::sim
