#pragma once
// Durable runtime snapshots (DESIGN.md §16). A checkpoint is a versioned,
// checksummed binary envelope around a flat byte payload:
//
//   magic "DBCP" | u32 version | u64 payload_len | payload | u64 FNV-1a
//
// CheckpointWriter serializes primitives into the payload; CheckpointReader
// deserializes with bounds checks that throw deepbat::Error on every short
// read — a truncated, bit-flipped, or version-skewed snapshot is rejected
// with a typed error before any state is touched, never undefined behavior.
// Scalars are stored as little-endian fixed-width bit patterns (doubles via
// their IEEE-754 image), so a restored replay resumes bit-identically.
//
// Checkpointable is the opt-in interface controllers and observers implement
// to ride inside a Runtime checkpoint (core::DeepBatController,
// learn::AdaptiveController, batchlib::BatchController). Runtime discovers
// it by dynamic_cast at save time; a tenant whose controller does not
// implement it cannot be checkpointed.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lambda/model.hpp"

namespace deepbat::sim {

/// Bumped whenever a checkpointed component's layout changes (DESIGN.md
/// §16), so a snapshot in an older layout is rejected as version skew.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Append-only byte buffer for checkpoint payloads.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f32(float v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  void floats(std::span<const float> v);
  void doubles(std::span<const double> v);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload reader; every accessor throws deepbat::Error when
/// the remaining bytes cannot satisfy the read.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::span<const std::uint8_t> bytes)
      : data_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  float f32();
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  std::vector<float> floats();
  std::vector<double> doubles();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Opt-in checkpoint participation for controllers / tenant observers.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_state(CheckpointWriter& w) const = 0;
  virtual void restore_state(CheckpointReader& r) = 0;
};

/// Serialize / restore a deterministic RNG stream position (the xoshiro
/// words plus the Box-Muller cache) — shared by every checkpointed
/// component that owns an Rng.
void save_rng(CheckpointWriter& w, const Rng& rng);
void restore_rng(CheckpointReader& r, Rng& rng);

/// Serialize / restore one (M, B, T) configuration — the currency of every
/// checkpointed controller and simulator.
void save_config(CheckpointWriter& w, const lambda::Config& config);
lambda::Config restore_config(CheckpointReader& r);

/// FNV-1a 64 over a byte range (the envelope checksum).
std::uint64_t checkpoint_checksum(std::span<const std::uint8_t> bytes);

/// Wrap `payload` in the envelope and write it atomically (temp + rename),
/// so a crash mid-save leaves the previous good checkpoint intact.
void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> payload);

/// Read and verify an envelope; returns the payload. Throws deepbat::Error
/// on a missing file, bad magic, version skew, truncation (declared length
/// exceeding the file), trailing garbage, or checksum mismatch.
std::vector<std::uint8_t> read_checkpoint_file(const std::string& path);

}  // namespace deepbat::sim
