#pragma once
// Bump/arena allocator for Tensor storage. Inference builds and discards an
// entire graph of intermediate tensors per forward pass, training one per
// step (forward and backward); with an active arena Scope those buffers
// come from a thread-local chunk list that is rewound — not freed — when
// the scope ends, so steady-state inference performs zero heap allocations
// per op.
//
// Lifetime rules (documented in DESIGN.md §Performance):
//  * A Scope covers one forward pass (e.g. Surrogate::predict_grid, one
//    eval batch). Every Tensor allocated on this thread while the scope is
//    active lives in the arena and DIES when the scope exits — copy any
//    result that must escape into plain data (or clone under a Pause).
//  * Scopes nest: an inner scope rewinds to its own watermark only.
//  * The arena is thread-local. Worker threads spawned inside a scope (e.g.
//    parallel_for bodies) see no arena and allocate normally.
//  * Leaf gradients are never arena-backed (autograd pauses the arena when
//    allocating them), so parameter grads always survive any scope. An
//    interior node's gradient dies with its graph and takes the arena, so
//    a training step under one scope (core::train) bump-allocates its
//    activations and their gradients alike. Optimizer state pauses the
//    arena too.
//  * Zero-cost when disabled: with no active scope, Tensor allocation takes
//    one thread-local load + branch and goes to the heap as before.

#include <cstddef>
#include <cstdint>

namespace deepbat::nn::arena {

/// Global kill switch (default on), checked at Scope construction; used by
/// the kernel regression harness to time the no-arena configuration.
void set_enabled(bool on);
bool enabled();

/// True if the calling thread has an active (non-paused) arena scope.
bool in_scope();

/// Bump-allocate `n` floats (64-byte aligned). Only valid when in_scope().
float* allocate(std::int64_t n);

/// RAII: activate the calling thread's arena (or record a watermark if one
/// is already active) and rewind to the watermark on destruction.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
  void* prev_ = nullptr;       // previously installed arena (nesting/pause)
  std::size_t chunk_ = 0;      // watermark: chunk index
  std::size_t offset_ = 0;     // watermark: offset within chunk
};

/// RAII: temporarily deactivate the current thread's arena so allocations
/// inside (e.g. recorded attention tensors, parameter gradients) go to the
/// heap and outlive the scope.
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

 private:
  void* saved_ = nullptr;
};

struct Stats {
  std::size_t chunks = 0;          // chunks held by this thread's arena
  std::size_t reserved_bytes = 0;  // total chunk capacity
  std::size_t peak_bytes = 0;      // high-water mark of live allocations
};

/// Stats for the calling thread's arena (valid whether or not in scope).
Stats stats();

}  // namespace deepbat::nn::arena
