// Thread-local scratch arena for the GEMM/conv compute path.
//
// The hot inference loop (hundreds of conv2d calls per DDIM step) needs
// short-lived buffers: conv B strips, packed GEMM panels and, for the
// gradients, im2col patch matrices. Going
// through the allocator for each would dominate small-tensor calls, so every
// thread owns a bump arena whose blocks persist for the thread's lifetime
// and are reused across calls. A `Scope` marks a checkpoint on construction
// and releases everything allocated after it when destroyed — allocation is
// a pointer bump, release is a pointer rewind.
//
// Blocks are never freed and never move, so pointers handed out inside a
// scope stay valid until that scope ends even if later allocations grow the
// arena. Peak per-thread usage is exported through the
// `nn.workspace.bytes_peak` gauge; total reserved capacity (summed over all
// thread arenas ever grown) through `nn.workspace.bytes_reserved`.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace dcdiff::nn {

class Workspace {
 public:
  // The calling thread's arena (created on first use, lives until thread
  // exit). Worker threads of the pool each get their own.
  static Workspace& tls();

  // 64-byte-aligned scratch of `n` floats, valid until the innermost Scope
  // enclosing this call ends. Contents are uninitialized.
  float* floats(size_t n);

  // RAII checkpoint over the calling thread's arena.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    size_t saved_block_;
    size_t saved_used_;
  };

  // Bytes currently handed out (this thread).
  size_t bytes_in_use() const { return in_use_; }
  // Bytes of backing capacity (this thread).
  size_t bytes_reserved() const { return reserved_; }

  // Process-wide count of backing-block heap allocations, summed over all
  // thread arenas ever grown (also the `nn.workspace.block_allocs` counter).
  // A warmed-up planned inference path must not move this: steady-state
  // forwards live entirely in the plan arena plus already-grown GEMM pack
  // scratch, so tests assert a zero delta across repeated calls.
  static size_t total_blocks_allocated();

 private:
  Workspace() = default;

  void* alloc_bytes(size_t bytes);

  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t cap = 0;
    size_t used = 0;
  };

  // Allocation only ever happens in blocks_[active_] or later, so a
  // (block, offset) pair is a complete checkpoint.
  std::vector<Block> blocks_;
  size_t active_ = 0;
  size_t in_use_ = 0;
  size_t reserved_ = 0;
};

}  // namespace dcdiff::nn
