#include "nn/tensor.h"

#include <algorithm>
#include <unordered_set>

namespace dcdiff::nn {
namespace {

thread_local bool g_grad_enabled = true;

}  // namespace

size_t shape_numel(const std::vector<int>& shape) {
  size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("shape_numel: non-positive dim");
    n *= static_cast<size_t>(d);
  }
  return n;
}

std::string shape_str(const std::vector<int>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

void check_same_shape(const std::vector<int>& a, const std::vector<int>& b,
                      const char* op) {
  if (a != b) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_str(a) + " vs " + shape_str(b));
  }
}

Tensor Tensor::zeros(std::vector<int> shape, bool requires_grad) {
  return full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::full(std::vector<int> shape, float fill, bool requires_grad) {
  auto node = std::make_shared<TensorNode>();
  node->value.assign(shape_numel(shape), fill);
  node->shape = std::move(shape);
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::from_data(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad) {
  if (shape_numel(shape) != data.size()) {
    throw std::invalid_argument("from_data: size mismatch");
  }
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  node->value = std::move(data);
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::scalar(float v, bool requires_grad) {
  return from_data({1}, {v}, requires_grad);
}

float Tensor::item() const {
  if (numel() != 1) throw std::logic_error("item(): tensor is not scalar");
  return node_->value[0];
}

void Tensor::zero_grad() {
  if (!node_->grad.empty()) {
    std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  }
}

Tensor Tensor::detach() const {
  auto node = std::make_shared<TensorNode>();
  node->shape = node_->shape;
  node->value = node_->value;
  node->requires_grad = false;
  return Tensor(node);
}

void Tensor::backward() {
  if (numel() != 1) {
    throw std::logic_error("backward(): root must be scalar");
  }
  // Topological order via iterative post-order DFS on parent edges.
  std::vector<TensorNode*> topo;
  std::unordered_set<TensorNode*> visited;
  std::vector<std::pair<TensorNode*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      TensorNode* parent = node->parents[idx++].get();
      if (visited.insert(parent).second) stack.emplace_back(parent, 0);
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  node_->ensure_grad();
  node_->grad[0] = 1.0f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

bool grad_enabled() { return g_grad_enabled; }

Tensor make_result(std::vector<int> shape, std::vector<float> value,
                   std::vector<Tensor> parents,
                   std::function<void(TensorNode&)> backward_fn) {
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  node->value = std::move(value);
  bool needs_grad = false;
  if (g_grad_enabled) {
    for (const Tensor& p : parents) needs_grad = needs_grad || p.requires_grad();
  }
  node->requires_grad = needs_grad;
  if (needs_grad) {
    TensorNode* self = node.get();
    node->backward_fn = [fn = std::move(backward_fn), self] { fn(*self); };
    node->parents.reserve(parents.size());
    for (const Tensor& p : parents) node->parents.push_back(p.node());
  }
  return Tensor(node);
}

}  // namespace dcdiff::nn
