// Process-lifetime cache of PackedA weight panels, keyed by weight tensor
// identity.
//
// conv2d packs its weight matrix into GEMM micro-kernel panels on every call
// (nn::PackedA). For a frozen inference model that packing is repeated,
// deterministic work: the same weight node is re-packed for every DDIM step
// of every request. A PackCache memoizes the panels per weight node, so each
// weight is packed exactly once per process: every serving worker runs one
// model, and model replicas (core::DCDiffModel::replicate) share its weight
// nodes and its cache, so all of them read one set of panels.
//
// Safety contract: entries are immutable after construction and keyed by
// TensorNode identity, so a cache hit is only sound while the node's value
// buffer never changes. Only frozen weights (`!w.requires_grad()`) are
// looked up: the eager conv2d consults the cache only for those and only
// outside autograd recording (`!grad_enabled()`), and a plan refuses to
// build over a conv weight that requires grad. core::DCDiffModel keeps that
// sound for its own weights: it is frozen from construction on, and each
// train_* call replaces the model's cache (and drops its plans) before any
// weight changes. The cache holds a shared_ptr to each cached node, so
// panels never dangle even if the owning model is destroyed first.
//
// Binding follows the same thread-local pattern as nn::PoolBinding: a model
// binds its cache with PackCacheBinding for the duration of an inference
// call, and conv2d consults PackCache::current(); compiled plans take the
// cache explicitly and resolve their conv panels through it at build time.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "nn/gemm.h"
#include "nn/tensor.h"

namespace dcdiff::nn {

class PackCache {
 public:
  PackCache() = default;
  PackCache(const PackCache&) = delete;
  PackCache& operator=(const PackCache&) = delete;

  // Panels for weight `w` viewed as an m x k row-major matrix (lda = k),
  // packing on first use. Thread-safe; the returned reference stays valid
  // for the cache's lifetime. Caller must ensure `w` is frozen (see header
  // comment).
  const PackedA& get(const Tensor& w, int64_t m, int64_t k);

  // Distinct weight nodes cached so far.
  size_t size() const;

  // The calling thread's bound cache (nullptr when none is bound).
  static PackCache* current();

 private:
  struct Entry {
    std::shared_ptr<TensorNode> keep_alive;
    std::unique_ptr<PackedA> packed;
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<const TensorNode*, Entry> entries_;
};

// RAII thread-local binding (nullptr unbinds). Nests; restores the previous
// binding on destruction.
class PackCacheBinding {
 public:
  explicit PackCacheBinding(PackCache* cache);
  ~PackCacheBinding();
  PackCacheBinding(const PackCacheBinding&) = delete;
  PackCacheBinding& operator=(const PackCacheBinding&) = delete;

 private:
  PackCache* prev_;
};

}  // namespace dcdiff::nn
