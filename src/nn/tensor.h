// Minimal tape-based reverse-mode autodiff tensor.
//
// A Tensor is a value-semantic handle to a shared node holding a dense float
// buffer, an optional gradient buffer, and (when built under an enabled
// gradient mode from inputs that require gradients) a backward closure plus
// parent edges. `Tensor::backward()` runs a topological sweep over the tape.
//
// Shapes are small vectors of ints; convolutional tensors use NCHW layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace dcdiff::nn {

struct TensorNode {
  std::vector<int> shape;
  std::vector<float> value;
  std::vector<float> grad;  // empty until first accumulation
  bool requires_grad = false;
  std::function<void()> backward_fn;           // empty for leaves
  std::vector<std::shared_ptr<TensorNode>> parents;

  size_t numel() const { return value.size(); }
  void ensure_grad() {
    if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorNode> node) : node_(std::move(node)) {}

  static Tensor zeros(std::vector<int> shape, bool requires_grad = false);
  static Tensor full(std::vector<int> shape, float fill,
                     bool requires_grad = false);
  static Tensor from_data(std::vector<int> shape, std::vector<float> data,
                          bool requires_grad = false);
  static Tensor scalar(float v, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const std::vector<int>& shape() const { return node_->shape; }
  int ndim() const { return static_cast<int>(node_->shape.size()); }
  int dim(int i) const { return node_->shape[static_cast<size_t>(i)]; }
  size_t numel() const { return node_->numel(); }

  std::vector<float>& value() { return node_->value; }
  const std::vector<float>& value() const { return node_->value; }
  float item() const;

  std::vector<float>& grad() {
    node_->ensure_grad();
    return node_->grad;
  }
  const std::vector<float>& grad_view() const { return node_->grad; }

  bool requires_grad() const { return node_->requires_grad; }
  void set_requires_grad(bool v) { node_->requires_grad = v; }
  void zero_grad();

  // Runs reverse-mode accumulation from this (scalar) tensor.
  void backward();

  // Drops the tape below this tensor (keeps value; used to truncate graphs).
  Tensor detach() const;

  std::shared_ptr<TensorNode> node() const { return node_; }

 private:
  std::shared_ptr<TensorNode> node_;
};

// Number of elements implied by a shape.
size_t shape_numel(const std::vector<int>& shape);
// Human-readable shape (for error messages).
std::string shape_str(const std::vector<int>& shape);
// Throws unless the two shapes match exactly.
void check_same_shape(const std::vector<int>& a, const std::vector<int>& b,
                      const char* op);

// RAII guard disabling tape recording (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

bool grad_enabled();

// Internal helper used by op implementations: creates a result node wired to
// its parents with a backward closure, honouring grad mode. The closure
// receives the finished result node (for its value/grad); it captures parent
// tensors itself. Stored as a raw self-reference inside the node, so no
// ownership cycle is created.
Tensor make_result(std::vector<int> shape, std::vector<float> value,
                   std::vector<Tensor> parents,
                   std::function<void(TensorNode&)> backward_fn);

}  // namespace dcdiff::nn
