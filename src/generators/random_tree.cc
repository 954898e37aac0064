#include "generators/random_tree.h"

#include <algorithm>

namespace ccd {

RandomTreeConcept::RandomTreeConcept(const Options& options, uint64_t seed)
    : schema_(options.num_features, options.num_classes, "random_tree"),
      opt_(options) {
  Rng rng(seed);
  // Grow until every class owns at least one leaf (rarely needs retries for
  // sensible depth settings).
  for (int attempt = 0; attempt < 64; ++attempt) {
    nodes_.clear();
    leaves_.clear();
    Grow(&rng, 0, std::vector<double>(schema_.num_features, 0.0),
         std::vector<double>(schema_.num_features, 1.0));

    // Assign labels: shuffle leaves, give the first K one of each class,
    // the rest random — guarantees full class coverage.
    std::vector<int> order(leaves_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    rng.Shuffle(&order);
    if (static_cast<int>(leaves_.size()) < opt_.num_classes) {
      opt_.min_depth += 1;
      opt_.max_depth = std::max(opt_.max_depth, opt_.min_depth + 2);
      continue;
    }
    for (size_t i = 0; i < order.size(); ++i) {
      int label = i < static_cast<size_t>(opt_.num_classes)
                      ? static_cast<int>(i)
                      : rng.UniformInt(0, opt_.num_classes - 1);
      leaves_[static_cast<size_t>(order[i])].label = label;
    }
    break;
  }
  for (Node& n : nodes_) {
    if (n.leaf_index >= 0) n.label = leaves_[static_cast<size_t>(n.leaf_index)].label;
  }
  leaves_by_class_.assign(static_cast<size_t>(opt_.num_classes), {});
  leaf_volumes_by_class_.assign(static_cast<size_t>(opt_.num_classes), {});
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const size_t k = static_cast<size_t>(leaves_[i].label);
    leaves_by_class_[k].push_back(static_cast<int>(i));
    leaf_volumes_by_class_[k].push_back(leaves_[i].volume);
  }
}

int RandomTreeConcept::Grow(Rng* rng, int depth, std::vector<double> lo,
                            std::vector<double> hi) {
  bool make_leaf = depth >= opt_.max_depth ||
                   (depth >= opt_.min_depth && rng->Bernoulli(opt_.leaf_prob));
  int idx = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  if (make_leaf) {
    Leaf leaf;
    leaf.lo = lo;
    leaf.hi = hi;
    leaf.volume = 1.0;
    for (size_t i = 0; i < lo.size(); ++i) leaf.volume *= (hi[i] - lo[i]);
    nodes_[static_cast<size_t>(idx)].leaf_index =
        static_cast<int>(leaves_.size());
    leaves_.push_back(std::move(leaf));
    return idx;
  }
  int f = rng->UniformInt(0, schema_.num_features - 1);
  double t = rng->Uniform(lo[static_cast<size_t>(f)] + 1e-6,
                          hi[static_cast<size_t>(f)] - 1e-6);
  nodes_[static_cast<size_t>(idx)].feature = f;
  nodes_[static_cast<size_t>(idx)].threshold = t;

  std::vector<double> lhi = hi;
  lhi[static_cast<size_t>(f)] = t;
  int left = Grow(rng, depth + 1, lo, lhi);
  std::vector<double> rlo = lo;
  rlo[static_cast<size_t>(f)] = t;
  int right = Grow(rng, depth + 1, rlo, hi);
  nodes_[static_cast<size_t>(idx)].left = left;
  nodes_[static_cast<size_t>(idx)].right = right;
  return idx;
}

int RandomTreeConcept::Sample(Rng* rng, std::vector<double>* x) const {
  x->resize(static_cast<size_t>(schema_.num_features));
  for (double& v : *x) v = rng->NextDouble();
  int cur = 0;
  while (nodes_[static_cast<size_t>(cur)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(cur)];
    cur = (*x)[static_cast<size_t>(n.feature)] < n.threshold ? n.left
                                                              : n.right;
  }
  return nodes_[static_cast<size_t>(cur)].label;
}

void RandomTreeConcept::SampleForClass(int k, Rng* rng,
                                       std::vector<double>* x) const {
  const size_t cls = static_cast<size_t>(k);
  const std::vector<int>& leaves = leaves_by_class_[cls];
  if (leaves.empty()) {
    Concept::SampleForClass(k, rng, x);
    return;
  }
  const Leaf& leaf = leaves_[static_cast<size_t>(leaves[static_cast<size_t>(
      rng->Discrete(leaf_volumes_by_class_[cls]))])];
  x->resize(leaf.lo.size());
  for (size_t i = 0; i < leaf.lo.size(); ++i) {
    (*x)[i] = rng->Uniform(leaf.lo[i], leaf.hi[i]);
  }
}

}  // namespace ccd
