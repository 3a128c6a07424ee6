// The checkpoint layer's contract (DESIGN.md §16): the writer/reader pair
// round-trips every primitive bit-exactly, the reader throws a typed
// deepbat::Error on EVERY short read (never UB), the file envelope rejects
// truncation / bit rot / version skew / bad magic, and the component
// save_state/restore_state hooks resume a mid-trace replay bit-identically
// — scheduler group sequences and faulted simulator results included.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lambda/model.hpp"
#include "sim/batch_sim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/faults.hpp"
#include "sim/tick_scheduler.hpp"
#include "workload/synth.hpp"

namespace deepbat::sim {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------ writer / reader ------

TEST(CheckpointIO, PrimitivesRoundTripBitExactly) {
  CheckpointWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(1.5F);
  w.f64(-0.1);
  w.boolean(true);
  w.boolean(false);
  w.str("tenant/θ∞");  // non-ASCII bytes survive verbatim
  w.str("");
  const std::vector<float> fs = {0.0F, -1.0F,
                                 std::numeric_limits<float>::infinity(),
                                 1e-38F};
  w.floats(fs);
  const std::vector<double> ds = {3.141592653589793, -0.0, 1e308};
  w.doubles(ds);

  CheckpointReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 1.5F);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "tenant/θ∞");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.floats(), fs);
  const std::vector<double> back = r.doubles();
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    // Bit-pattern compare: -0.0 must restore as -0.0, not 0.0.
    EXPECT_EQ(std::signbit(back[i]), std::signbit(ds[i]));
    EXPECT_EQ(back[i], ds[i]);
  }
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CheckpointIO, EveryShortReadThrowsTypedError) {
  CheckpointWriter w;
  w.u32(7);
  const auto& buf = w.bytes();
  {
    CheckpointReader r(buf);
    EXPECT_THROW(r.u64(), Error);  // 4 bytes can't satisfy 8
  }
  {
    CheckpointReader r(buf);
    (void)r.u32();
    EXPECT_THROW(r.u8(), Error);  // exhausted
    EXPECT_THROW(r.f64(), Error);
    EXPECT_THROW(r.str(), Error);
    EXPECT_THROW(r.floats(), Error);
  }
  // A string/array whose declared length exceeds the remaining bytes must
  // be rejected before any allocation-by-length.
  CheckpointWriter lie;
  lie.u64(std::numeric_limits<std::uint64_t>::max());
  {
    CheckpointReader r(lie.bytes());
    EXPECT_THROW(r.str(), Error);
  }
  {
    CheckpointReader r(lie.bytes());
    EXPECT_THROW(r.doubles(), Error);
  }
}

TEST(CheckpointIO, RngStreamResumesExactly) {
  Rng a(12345);
  for (int i = 0; i < 17; ++i) (void)a.normal();  // prime the Box-Muller cache
  CheckpointWriter w;
  save_rng(w, a);
  CheckpointReader r(w.bytes());
  Rng b(999);  // deliberately different seed
  restore_rng(r, b);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.normal(), b.normal());
  }
}

TEST(CheckpointIO, ConfigRoundTrips) {
  const lambda::Config cfg{2048, 7, 1.25};
  CheckpointWriter w;
  save_config(w, cfg);
  CheckpointReader r(w.bytes());
  const lambda::Config back = restore_config(r);
  EXPECT_EQ(back.memory_mb, cfg.memory_mb);
  EXPECT_EQ(back.batch_size, cfg.batch_size);
  EXPECT_EQ(back.timeout_s, cfg.timeout_s);
}

// ------------------------------------------------------ envelope ------

TEST(CheckpointEnvelope, FileRoundTripsAndRejectsEveryCorruption) {
  CheckpointWriter w;
  w.str("payload under test");
  w.u64(0x1122334455667788ull);
  const std::string path = temp_path("deepbat_ckpt_env.bin");
  write_checkpoint_file(path, w.bytes());
  EXPECT_EQ(read_checkpoint_file(path), w.bytes());

  std::ifstream in(path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(raw.size(), 24u);  // magic + version + len + checksum

  const auto write_variant = [&](std::string bytes) {
    const std::string p = path + ".corrupt";
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    return p;
  };

  // Truncated: declared payload length exceeds the file.
  EXPECT_THROW(read_checkpoint_file(
                   write_variant(raw.substr(0, raw.size() / 2))),
               Error);
  // Bit rot in the payload: checksum mismatch.
  {
    std::string flipped = raw;
    flipped[16 + raw.size() / 3] ^= 0x04;
    EXPECT_THROW(read_checkpoint_file(write_variant(flipped)), Error);
  }
  // Version skew.
  {
    std::string skew = raw;
    skew[4] ^= 0x7F;
    EXPECT_THROW(read_checkpoint_file(write_variant(skew)), Error);
  }
  // Bad magic.
  {
    std::string magic = raw;
    magic[0] = 'X';
    EXPECT_THROW(read_checkpoint_file(write_variant(magic)), Error);
  }
  // Trailing garbage after the checksum.
  EXPECT_THROW(read_checkpoint_file(write_variant(raw + "zzz")), Error);
  // Missing file.
  EXPECT_THROW(read_checkpoint_file(temp_path("deepbat_no_such_ckpt.bin")),
               Error);
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(CheckpointEnvelope, ChecksumIsFnv1aOverPayload) {
  // Pin the checksum function: two payloads differing in one bit hash
  // differently, and the empty payload hashes to the FNV-1a offset basis.
  const std::vector<std::uint8_t> a = {1, 2, 3};
  std::vector<std::uint8_t> b = a;
  b[1] ^= 1;
  EXPECT_NE(checkpoint_checksum(a), checkpoint_checksum(b));
  EXPECT_EQ(checkpoint_checksum({}), 14695981039346656037ull);
}

// ------------------------------------------------ tick scheduler ------

// Drive a mixed-interval scheduler partway, snapshot every slot's progress,
// rebuild a fresh scheduler from the same registrations, restore, and
// compare the COMPLETE remaining group sequence (instants and members)
// against the uninterrupted original.
TEST(CheckpointScheduler, RestoredSlotsReplayIdenticalGroupSequence) {
  const auto build = [] {
    TickScheduler s;
    s.add(30.0, 0.0, 400.0, false);
    s.add(45.0, 10.0, 380.0, false);
    s.add(30.0, 5.0, 90.0, false);   // retires partway through
    s.add(60.0, 0.0, 350.0, false);
    s.add(30.0, 0.0, 0.0, true);     // never ticks
    return s;
  };

  TickScheduler live = build();
  std::vector<std::size_t> group;
  for (int step = 0; step < 6; ++step) {
    const auto t = live.next_group(group);
    ASSERT_TRUE(t.has_value());
    for (const std::size_t slot : group) live.complete_tick(slot);
  }

  TickScheduler restored = build();
  for (std::size_t i = 0; i < live.size(); ++i) {
    restored.restore_slot(i, live.tick_index(i), live.done(i));
  }
  restored.rebuild();

  std::vector<std::size_t> ga;
  std::vector<std::size_t> gb;
  while (true) {
    const auto ta = live.next_group(ga);
    const auto tb = restored.next_group(gb);
    ASSERT_EQ(ta.has_value(), tb.has_value());
    if (!ta.has_value()) break;
    EXPECT_EQ(*ta, *tb);  // bitwise-equal instants
    EXPECT_EQ(ga, gb);
    for (const std::size_t slot : ga) {
      live.complete_tick(slot);
      restored.complete_tick(slot);
    }
  }
  EXPECT_EQ(live.live(), 0u);
  EXPECT_EQ(restored.live(), 0u);
}

// ------------------------------------- simulator + fault injector ------

// Replay a chaos-faulted trace halfway, checkpoint the simulator (fault
// stream, cold RNG, open batch, accumulated results), restore into a fresh
// simulator built from the same spec, and finish both. Every field of the
// final SimResult — retries, drops, costs, per-request times — must match
// bitwise, proving the fault/cold RNG positions and the open batch survive
// the round trip.
TEST(CheckpointSimulator, FaultedMidTraceSaveRestoreIsBitIdentical) {
  const lambda::LambdaModel lm;
  const lambda::Config cfg{1024, 4, 2.0};
  const FaultPlan plan = fault_scenario("chaos", 77);
  const workload::Trace trace = workload::twitter_like({.hours = 0.05}, 31);

  BatchSimulator reference(lm, cfg, 12345, &plan, 3);
  BatchSimulator first(lm, cfg, 12345, &plan, 3);
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < trace.size(); ++i) reference.offer(trace[i]);
  for (std::size_t i = 0; i < half; ++i) first.offer(trace[i]);

  CheckpointWriter w;
  first.save_state(w);

  BatchSimulator resumed(lm, cfg, 12345, &plan, 3);
  CheckpointReader r(w.bytes());
  resumed.restore_state(r);
  EXPECT_TRUE(r.done());
  for (std::size_t i = half; i < trace.size(); ++i) resumed.offer(trace[i]);

  reference.finalize();
  resumed.finalize();
  const SimResult& a = reference.result();
  const SimResult& b = resumed.result();
  EXPECT_GT(a.retries + a.dropped, 0u);  // the chaos faults actually bit
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
    EXPECT_EQ(a.requests[i].dispatch, b.requests[i].dispatch);
    EXPECT_EQ(a.requests[i].completion, b.requests[i].completion);
    EXPECT_EQ(a.requests[i].batch_actual, b.requests[i].batch_actual);
    EXPECT_EQ(a.requests[i].cost_share, b.requests[i].cost_share);
  }
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.dropped_arrivals, b.dropped_arrivals);
}

// A corrupted simulator payload must be rejected with a typed error, never
// UB: flip the layer-presence flags so restore sees a spec mismatch, and
// hand it a truncated payload so a count outruns the remaining bytes.
TEST(CheckpointSimulator, RestoreRejectsMismatchedSpecAndTruncation) {
  const lambda::LambdaModel lm;
  const lambda::Config cfg{1024, 2, 1.0};
  const FaultPlan plan = fault_scenario("flaky", 7);
  BatchSimulator faulted(lm, cfg, 42, &plan, 0);
  faulted.offer(0.5);
  faulted.offer(0.9);
  CheckpointWriter w;
  faulted.save_state(w);

  // Restoring a faulted snapshot into a fault-free simulator: layer flags
  // disagree with the construction spec.
  BatchSimulator plain(lm, cfg);
  CheckpointReader r1(w.bytes());
  EXPECT_THROW(plain.restore_state(r1), Error);

  // Truncated payload: stop mid-stream.
  const auto& full = w.bytes();
  BatchSimulator target(lm, cfg, 42, &plan, 0);
  CheckpointReader r2(std::span<const std::uint8_t>(full.data(),
                                                    full.size() / 2));
  EXPECT_THROW(target.restore_state(r2), Error);
}

// Faulted-injector round trip in isolation: positions of all fault RNG
// streams survive, so the post-restore draw sequence continues exactly.
TEST(CheckpointFaults, InjectorStreamsResumeExactly) {
  const FaultPlan plan = fault_scenario("chaos", 9);
  const lambda::LambdaModel lm;
  const lambda::Config cfg{1024, 2, 1.0};
  BatchSimulator sa(lm, cfg, 1, &plan, 2);
  for (double t = 0.0; t < 120.0; t += 0.7) sa.offer(t);
  CheckpointWriter w;
  sa.save_state(w);
  BatchSimulator sb(lm, cfg, 1, &plan, 2);
  CheckpointReader r(w.bytes());
  sb.restore_state(r);
  for (double t = 120.0; t < 240.0; t += 0.7) {
    sa.offer(t);
    sb.offer(t);
  }
  sa.finalize();
  sb.finalize();
  EXPECT_EQ(sa.result().retries, sb.result().retries);
  EXPECT_EQ(sa.result().dropped, sb.result().dropped);
  EXPECT_EQ(sa.result().total_cost, sb.result().total_cost);
  EXPECT_EQ(sa.result().invocations, sb.result().invocations);
}

}  // namespace
}  // namespace deepbat::sim
