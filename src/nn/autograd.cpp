#include "nn/autograd.hpp"

#include <unordered_set>

#include "common/error.hpp"
#include "nn/arena.hpp"

namespace deepbat::nn {

namespace {
thread_local int tl_no_grad_depth = 0;
}  // namespace

bool grad_enabled() { return tl_no_grad_depth == 0; }

NoGradGuard::NoGradGuard() { ++tl_no_grad_depth; }

NoGradGuard::~NoGradGuard() { --tl_no_grad_depth; }

Tensor& Node::ensure_grad() {
  if (!has_grad) {
    // Leaf gradients (parameters, inputs) are never arena-backed: they must
    // survive any arena scope that happens to be active, such as a training
    // step's. An interior node's gradient dies with its graph, so it takes
    // the arena when one is active (see arena.hpp).
    if (backward_fn) {
      grad = Tensor::zeros(value.shape());
    } else {
      arena::Pause heap_alloc;
      grad = Tensor::zeros(value.shape());
    }
    has_grad = true;
  }
  return grad;
}

void Node::accumulate_grad(const Tensor& g) {
  DEEPBAT_CHECK(g.numel() == value.numel(),
                "accumulate_grad: shape mismatch in op " + op_name);
  ensure_grad().add_inplace(g);
}

void Node::zero_grad() {
  has_grad = false;
  arena::Pause heap_alloc;  // the placeholder outlives any arena scope
  grad = Tensor();
}

Var make_leaf(Tensor value, bool requires_grad, std::string name) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->op_name = std::move(name);
  return node;
}

Var make_node(Tensor value, std::vector<Var> parents,
              std::function<void(Node&)> backward_fn, std::string op_name) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = grad_enabled() && any_requires_grad(parents);
  if (node->requires_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  // Without grad the parent links are dropped so upstream intermediates can
  // be reclaimed as soon as the caller releases them.
  node->op_name = std::move(op_name);
  return node;
}

bool any_requires_grad(std::span<const Var> parents) {
  for (const auto& p : parents) {
    if (p && p->requires_grad) return true;
  }
  return false;
}

namespace {

// Iterative post-order DFS producing a reverse-topological visit order.
void topo_sort(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  // Stack entries: (node, next-parent-index).
  std::vector<std::pair<Node*, std::size_t>> stack;
  if (!root || !root->requires_grad) return;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      Node* parent = node->parents[idx].get();
      ++idx;
      if (parent != nullptr && parent->requires_grad &&
          visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void backward(const Var& root) {
  DEEPBAT_CHECK(root != nullptr, "backward: null root");
  DEEPBAT_CHECK(root->requires_grad,
                "backward: root does not require gradients");
  std::vector<Node*> order;
  topo_sort(root, order);
  root->accumulate_grad(Tensor::ones(root->value.shape()));
  // `order` is post-order (parents before children), so iterate backwards to
  // visit each node after all of its consumers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->has_grad) {
      node->backward_fn(*node);
    }
  }
}

void zero_grad(std::span<const Var> params) {
  for (const auto& p : params) {
    if (p) p->zero_grad();
  }
}

}  // namespace deepbat::nn
