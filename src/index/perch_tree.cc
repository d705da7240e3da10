#include "index/perch_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace vz::index {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kCostEps = 1e-12;

// An item of the tree's own metric as a search target.
class MetricTarget final : public ItemQuery {
 public:
  MetricTarget(ItemMetric* metric, int target)
      : metric_(metric), target_(target) {}
  double Distance(int item) const override {
    return metric_->Distance(target_, item);
  }
  double LowerBound(int item) const override {
    return metric_->LowerBound(target_, item);
  }

 private:
  ItemMetric* metric_;
  int target_;
};

}  // namespace

PerchTree::PerchTree(ItemMetric* metric, const PerchOptions& options)
    : metric_(metric), options_(options) {}

void PerchTree::Reserve(size_t expected_items) {
  if (expected_items == 0) return;
  nodes_.reserve(std::max(nodes_.size(), 2 * expected_items - 1));
  leaves_.reserve(std::max(leaves_.size(), expected_items));
  inserted_items_.reserve(std::max(inserted_items_.size(), expected_items));
}

int PerchTree::NewLeaf(int item) {
  Node node;
  node.item = item;
  node.leaf_count = 1;
  node.samples = {item};
  nodes_.push_back(std::move(node));
  const int id = static_cast<int>(nodes_.size()) - 1;
  leaves_.push_back(id);
  return id;
}

int PerchTree::Sibling(int v) const {
  const int p = nodes_[v].parent;
  if (p < 0) return -1;
  return nodes_[p].left == v ? nodes_[p].right : nodes_[p].left;
}

int PerchTree::Aunt(int v) const {
  const int p = nodes_[v].parent;
  if (p < 0) return -1;
  return Sibling(p);
}

Status PerchTree::Insert(int item) {
  if (metric_ == nullptr) {
    return Status::FailedPrecondition("PerchTree has no metric");
  }
  ++stats_.insertions;
  inserted_items_.push_back(item);
  if (root_ < 0) {
    root_ = NewLeaf(item);
    return Status::OK();
  }

  // Greedy step: attach next to the nearest leaf (Sec. 4.1).
  ++stats_.nn_searches;
  const int nn_node = FindNearestLeafNode(MetricTarget(metric_, item));
  const int new_leaf = NewLeaf(item);

  // Split: a fresh internal node adopts {nn_node, new_leaf} in nn's place.
  Node internal;
  internal.parent = nodes_[nn_node].parent;
  internal.left = nn_node;
  internal.right = new_leaf;
  nodes_.push_back(std::move(internal));
  const int internal_id = static_cast<int>(nodes_.size()) - 1;
  const int old_parent = nodes_[nn_node].parent;
  nodes_[nn_node].parent = internal_id;
  nodes_[new_leaf].parent = internal_id;
  if (old_parent < 0) {
    root_ = internal_id;
  } else if (nodes_[old_parent].left == nn_node) {
    nodes_[old_parent].left = internal_id;
  } else {
    nodes_[old_parent].right = internal_id;
  }
  RefreshFromChildren(internal_id);
  RefreshUpwards(old_parent);

  // Purity-enhancing and balance rotations (Algorithm 2) start from the new
  // leaf's sibling.
  if (options_.enable_masking_rotations) {
    RotateLoop(nn_node, RotateKind::kMasking);
  }
  if (options_.enable_balance_rotations) {
    RotateLoop(nn_node, RotateKind::kBalance);
  }
  return Status::OK();
}

int PerchTree::FindNearestLeafNode(const ItemQuery& query) const {
  if (!options_.enable_pruned_nn) {
    // Unpruned baseline: probe every leaf with the full metric (Fig. 13's
    // "w/o pruning" series).
    double best = kInf;
    int best_node = leaves_.front();
    for (int leaf : leaves_) {
      const double d = query.Distance(nodes_[leaf].item);
      if (d < best) {
        best = d;
        best_node = leaf;
      }
    }
    return best_node;
  }
  // OCD-pruned best-first search (Sec. 4.3): leaves enter a priority queue
  // keyed by the cheap lower bound; popping a leaf whose exact distance has
  // already been computed proves it is the nearest neighbor because the
  // lower bound under-estimates every unexplored leaf.
  struct Entry {
    double key;
    int node;
    bool exact;
    bool operator>(const Entry& other) const { return key > other.key; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (int leaf : leaves_) {
    heap.push({query.LowerBound(nodes_[leaf].item), leaf, false});
  }
  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    if (top.exact) return top.node;
    const double d = query.Distance(nodes_[top.node].item);
    heap.push({d, top.node, true});
  }
  return leaves_.front();  // unreachable for non-empty trees
}

StatusOr<int> PerchTree::NearestNeighbor(int target) {
  return NearestNeighbor(MetricTarget(metric_, target));
}

StatusOr<int> PerchTree::NearestNeighbor(const ItemQuery& query) const {
  if (root_ < 0) return Status::NotFound("tree is empty");
  return nodes_[FindNearestLeafNode(query)].item;
}

StatusOr<std::vector<int>> PerchTree::KNearestNeighbors(int target,
                                                        size_t count) {
  if (root_ < 0) return Status::NotFound("tree is empty");
  count = std::min(count, leaves_.size());
  std::vector<int> result;
  result.reserve(count);
  if (!options_.enable_pruned_nn) {
    std::vector<std::pair<double, int>> all;
    all.reserve(leaves_.size());
    for (int leaf : leaves_) {
      all.emplace_back(metric_->Distance(target, nodes_[leaf].item),
                       nodes_[leaf].item);
    }
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(count),
                      all.end());
    for (size_t i = 0; i < count; ++i) result.push_back(all[i].second);
    return result;
  }
  struct Entry {
    double key;
    int node;
    bool exact;
    bool operator>(const Entry& other) const { return key > other.key; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (int leaf : leaves_) {
    heap.push({metric_->LowerBound(target, nodes_[leaf].item), leaf, false});
  }
  while (!heap.empty() && result.size() < count) {
    const Entry top = heap.top();
    heap.pop();
    if (top.exact) {
      result.push_back(nodes_[top.node].item);
      continue;
    }
    const double d = metric_->Distance(target, nodes_[top.node].item);
    heap.push({d, top.node, true});
  }
  return result;
}

void PerchTree::RefreshFromChildren(int v) {
  Node& node = nodes_[v];
  if (node.is_leaf()) return;
  const Node& l = nodes_[node.left];
  const Node& r = nodes_[node.right];
  node.leaf_count = l.leaf_count + r.leaf_count;
  // Interleave child samples up to the cap so both subtrees stay visible.
  node.samples.clear();
  const size_t cap = std::max<size_t>(1, options_.samples_per_node);
  for (size_t i = 0; node.samples.size() < cap; ++i) {
    bool took = false;
    if (i < l.samples.size()) {
      node.samples.push_back(l.samples[i]);
      took = true;
    }
    if (node.samples.size() < cap && i < r.samples.size()) {
      node.samples.push_back(r.samples[i]);
      took = true;
    }
    if (!took) break;
  }
  // Approximate cost (max intra-node distance): children costs plus the
  // largest cross-child sample distance.
  double cost = std::max(l.cost, r.cost);
  for (int x : l.samples) {
    for (int y : r.samples) {
      cost = std::max(cost, metric_->Distance(x, y));
    }
  }
  node.cost = cost;
}

void PerchTree::RefreshUpwards(int v) {
  bool cost_live = true;
  while (v >= 0) {
    Node& node = nodes_[v];
    const Node& l = nodes_[node.left];
    const Node& r = nodes_[node.right];
    if (cost_live) {
      const double old_cost = node.cost;
      RefreshFromChildren(v);
      // Bottom-up cost heuristic (Sec. 4.3): stop recomputing the expensive
      // cost once it stops changing along the path.
      if (std::fabs(node.cost - old_cost) <= kCostEps) cost_live = false;
    } else {
      // Structural summaries stay exact all the way to the root.
      node.leaf_count = l.leaf_count + r.leaf_count;
      node.samples.clear();
      const size_t cap = std::max<size_t>(1, options_.samples_per_node);
      for (size_t i = 0; node.samples.size() < cap; ++i) {
        bool took = false;
        if (i < l.samples.size()) {
          node.samples.push_back(l.samples[i]);
          took = true;
        }
        if (node.samples.size() < cap && i < r.samples.size()) {
          node.samples.push_back(r.samples[i]);
          took = true;
        }
        if (!took) break;
      }
    }
    v = node.parent;
  }
}

bool PerchTree::IsMasked(int v) {
  const int sibling = Sibling(v);
  const int aunt = Aunt(v);
  if (sibling < 0 || aunt < 0) return false;

  auto leaf_items_of = [this](int node) {
    std::vector<int> items;
    std::vector<int> stack = {node};
    while (!stack.empty()) {
      const int x = stack.back();
      stack.pop_back();
      if (nodes_[x].is_leaf()) {
        items.push_back(nodes_[x].item);
      } else {
        stack.push_back(nodes_[x].left);
        stack.push_back(nodes_[x].right);
      }
    }
    return items;
  };

  const std::vector<int> xs = options_.exact_masking_check
                                  ? leaf_items_of(v)
                                  : nodes_[v].samples;
  const std::vector<int> ys = options_.exact_masking_check
                                  ? leaf_items_of(sibling)
                                  : nodes_[sibling].samples;
  const std::vector<int> zs = options_.exact_masking_check
                                  ? leaf_items_of(aunt)
                                  : nodes_[aunt].samples;
  // Sec. 4.1: v is masked if some x in lvs(v) is farther from its worst
  // sibling leaf than from its best aunt leaf (by the configured margin).
  const double margin = std::max(1.0, options_.masking_margin);
  for (int x : xs) {
    double max_to_sibling = 0.0;
    for (int y : ys) {
      max_to_sibling = std::max(max_to_sibling, metric_->Distance(x, y));
    }
    double min_to_aunt = kInf;
    for (int z : zs) {
      min_to_aunt = std::min(min_to_aunt, metric_->Distance(x, z));
    }
    if (max_to_sibling > margin * min_to_aunt) return true;
  }
  return false;
}

bool PerchTree::BalanceImproves(int v) const {
  const int p = nodes_[v].parent;
  if (p < 0) return false;
  const int g = nodes_[p].parent;
  if (g < 0) return false;
  const int sibling = Sibling(v);
  const int aunt = Aunt(v);
  auto bal = [](size_t a, size_t b) {
    return static_cast<double>(std::min(a, b)) /
           static_cast<double>(std::max<size_t>(1, std::max(a, b)));
  };
  const size_t nv = nodes_[v].leaf_count;
  const size_t ns = nodes_[sibling].leaf_count;
  const size_t na = nodes_[aunt].leaf_count;
  // Before: p = {v, sibling}, g = {p, aunt}. After the rotation:
  // p' = {sibling, aunt}, g' = {p', v}.
  const double before = bal(nv, ns) + bal(nv + ns, na);
  const double after = bal(ns, na) + bal(ns + na, nv);
  return after > before + 1e-12;
}

void PerchTree::RotateWithAunt(int v) {
  const int p = nodes_[v].parent;
  const int g = nodes_[p].parent;
  const int a = Aunt(v);
  // Detach-and-swap: v takes a's slot under g, a takes v's slot under p.
  if (nodes_[p].left == v) {
    nodes_[p].left = a;
  } else {
    nodes_[p].right = a;
  }
  if (nodes_[g].left == a) {
    nodes_[g].left = v;
  } else {
    nodes_[g].right = v;
  }
  nodes_[v].parent = g;
  nodes_[a].parent = p;
  RefreshFromChildren(p);
  RefreshUpwards(nodes_[p].parent);
}

void PerchTree::RotateLoop(int v, RotateKind kind) {
  size_t rotations = 0;
  while (v >= 0 && rotations < options_.max_rotations_per_insert) {
    if (Aunt(v) < 0) break;  // rotation needs a grandparent
    bool should_rotate = false;
    if (kind == RotateKind::kMasking) {
      if (IsMasked(v)) {
        // v is masked: its sibling does not represent it (Fig. 7 — C0 masks
        // T0). The repair swaps the ill-fitting *sibling* with the aunt, so
        // the outlier moves up toward the root while v is re-paired with
        // the aunt it is actually close to.
        RotateWithAunt(Sibling(v));
        ++stats_.masking_rotations;
        ++rotations;
        continue;  // v keeps its depth but has a new sibling/aunt; re-check
      }
      const int sibling = Sibling(v);
      if (sibling >= 0 && IsMasked(sibling)) {
        // The sibling is masked *by v*: v (e.g. a foreign subtree nested in
        // the sibling's cluster region) must move up instead.
        RotateWithAunt(v);
        ++stats_.masking_rotations;
        ++rotations;
        continue;  // v moved one level up; re-examine at the new level
      }
      // Neither side masked here; keep walking toward the root — masking
      // one level up is still possible (Algorithm 1 recurses on Parent).
      v = nodes_[v].parent;
      continue;
    } else {
      should_rotate = BalanceImproves(v);
      if (!should_rotate) break;
      const int old_aunt = Aunt(v);
      RotateWithAunt(v);
      // Sec. 4.3: keep the rotation only if it does not cause masking.
      // After the swap the old aunt occupies v's former slot and its aunt is
      // v, so rotating the old aunt with *its* aunt restores the old shape.
      if (options_.enable_masking_rotations &&
          (IsMasked(v) || IsMasked(old_aunt))) {
        RotateWithAunt(old_aunt);
        break;
      }
      ++stats_.balance_rotations;
      ++rotations;
      v = nodes_[v].parent;
    }
  }
}

size_t PerchTree::Depth() const {
  if (root_ < 0) return 0;
  size_t max_depth = 0;
  std::vector<std::pair<int, size_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [v, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (!nodes_[v].is_leaf()) {
      stack.push_back({nodes_[v].left, d + 1});
      stack.push_back({nodes_[v].right, d + 1});
    }
  }
  return max_depth;
}

double PerchTree::AverageBalance() const {
  double total = 0.0;
  size_t internal = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf()) continue;
    // Skip detached nodes (none are produced currently, but be safe).
    const size_t a = nodes_[node.left].leaf_count;
    const size_t b = nodes_[node.right].leaf_count;
    total += static_cast<double>(std::min(a, b)) /
             static_cast<double>(std::max<size_t>(1, std::max(a, b)));
    ++internal;
  }
  return internal == 0 ? 1.0 : total / static_cast<double>(internal);
}

std::vector<std::vector<int>> PerchTree::ExtractClusters(size_t k) const {
  std::vector<std::vector<int>> clusters;
  if (root_ < 0) return clusters;
  k = std::max<size_t>(1, k);
  // Frontier refinement (Sec. 4.2). The paper's text says to pop the node
  // with the smallest cost; splitting the *loosest* (largest-cost) node is
  // the standard reading that actually tightens clusters, and is what we do.
  std::vector<int> frontier = {root_};
  while (frontier.size() < k) {
    int best = -1;
    double best_cost = -kInf;
    for (size_t i = 0; i < frontier.size(); ++i) {
      const Node& node = nodes_[frontier[i]];
      if (node.is_leaf()) continue;
      const double c = node.cost + 1e-9 * static_cast<double>(node.leaf_count);
      if (c > best_cost) {
        best_cost = c;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // all frontier nodes are leaves
    const int node_id = frontier[static_cast<size_t>(best)];
    frontier[static_cast<size_t>(best)] = nodes_[node_id].left;
    frontier.push_back(nodes_[node_id].right);
  }
  clusters.reserve(frontier.size());
  for (int f : frontier) {
    std::vector<int> items;
    std::vector<int> stack = {f};
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (nodes_[v].is_leaf()) {
        items.push_back(nodes_[v].item);
      } else {
        stack.push_back(nodes_[v].left);
        stack.push_back(nodes_[v].right);
      }
    }
    clusters.push_back(std::move(items));
  }
  return clusters;
}

clustering::ClusterTree PerchTree::ToClusterTree() const {
  clustering::ClusterTree tree;
  if (root_ < 0) return tree;
  // Post-order construction so children exist before their parent.
  std::vector<int> mapped(nodes_.size(), -1);
  std::vector<std::pair<int, bool>> stack = {{root_, false}};
  while (!stack.empty()) {
    auto [v, processed] = stack.back();
    stack.pop_back();
    if (!processed) {
      stack.push_back({v, true});
      if (!nodes_[v].is_leaf()) {
        stack.push_back({nodes_[v].left, false});
        stack.push_back({nodes_[v].right, false});
      }
      continue;
    }
    if (nodes_[v].is_leaf()) {
      mapped[v] = tree.AddLeaf(nodes_[v].item);
    } else {
      mapped[v] =
          tree.AddInternal({mapped[nodes_[v].left], mapped[nodes_[v].right]});
    }
  }
  tree.SetRoot(mapped[root_]);
  return tree;
}

Status PerchTree::Validate() const {
  if (root_ < 0) return Status::OK();
  size_t leaf_total = 0;
  std::vector<int> stack = {root_};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    const Node& node = nodes_[v];
    if (node.is_leaf()) {
      if (node.item < 0) return Status::Internal("leaf without item");
      if (node.leaf_count != 1) return Status::Internal("leaf count != 1");
      ++leaf_total;
      continue;
    }
    if (node.right < 0) return Status::Internal("internal node not binary");
    if (nodes_[node.left].parent != v || nodes_[node.right].parent != v) {
      return Status::Internal("parent link mismatch");
    }
    if (node.leaf_count !=
        nodes_[node.left].leaf_count + nodes_[node.right].leaf_count) {
      return Status::Internal("leaf count mismatch");
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
  if (leaf_total != leaves_.size()) {
    return Status::Internal("reachable leaves != stored leaves");
  }
  return Status::OK();
}

}  // namespace vz::index
