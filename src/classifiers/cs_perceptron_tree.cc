#include "classifiers/cs_perceptron_tree.h"

#include <algorithm>
#include <cmath>

#include "io/codecs.h"
#include "stats/distributions.h"

namespace ccd {

CsPerceptronTree::CsPerceptronTree(const StreamSchema& schema,
                                   const Params& params)
    : schema_(schema), params_(params) {
  Reset();
}

void CsPerceptronTree::Reset() {
  nodes_.clear();
  nodes_.emplace_back();
  nodes_[0].depth = 0;
  InitLeaf(&nodes_[0]);
  num_leaves_ = 1;
}

void CsPerceptronTree::InitLeaf(Node* node) {
  node->feature = -1;
  node->leaf = std::make_unique<Leaf>();
  Leaf& leaf = *node->leaf;
  leaf.class_counts.assign(static_cast<size_t>(schema_.num_classes), 0.0);
  leaf.feature_stats.assign(
      static_cast<size_t>(schema_.num_features),
      std::vector<Welford>(static_cast<size_t>(schema_.num_classes)));
  leaf.perceptron =
      std::make_unique<SoftmaxPerceptron>(schema_, params_.leaf_params);
}

int CsPerceptronTree::Route(const Instance& instance) const {
  int cur = 0;
  while (nodes_[static_cast<size_t>(cur)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(cur)];
    double v = n.feature < static_cast<int>(instance.features.size())
                   ? instance.features[static_cast<size_t>(n.feature)]
                   : 0.0;
    cur = v < n.threshold ? n.left : n.right;
  }
  return cur;
}

double CsPerceptronTree::Entropy(const std::vector<double>& counts) const {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c > 0.0) {
      double p = c / total;
      h -= p * std::log2(p);
    }
  }
  return h;
}

void CsPerceptronTree::MaybeSplit(int node_index) {
  Node& node = nodes_[static_cast<size_t>(node_index)];
  Leaf& leaf = *node.leaf;
  if (node.depth >= params_.max_depth || num_leaves_ >= params_.max_leaves) {
    return;
  }

  // Candidate thresholds: per feature, the class-conditional means. Each
  // candidate's gain is h0 - (nl/total)·H(left) - (nr/total)·H(right),
  // where class c's mass n_c goes left with probability
  // Φ((threshold - mean_c) / sd_c) (half each way below 2 samples). What
  // does not depend on the candidate — h0, the class total and each
  // class's sd — is computed once per check or once per feature.
  const size_t k = leaf.class_counts.size();
  double total = 0.0;
  for (size_t c = 0; c < k; ++c) {
    double n = leaf.class_counts[c];
    if (n <= 0.0) continue;
    total += n;
  }
  if (total <= 0.0) return;  // Every candidate's gain would be 0.
  const double h0 = Entropy(leaf.class_counts);
  split_sd_.resize(k);
  double best_gain = 0.0, second_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  for (int f = 0; f < schema_.num_features; ++f) {
    const std::vector<Welford>& stats =
        leaf.feature_stats[static_cast<size_t>(f)];
    for (size_t c = 0; c < k; ++c) {
      if (stats[c].count() >= 2) {
        split_sd_[c] = std::max(std::sqrt(stats[c].Variance()), 1e-3);
      }
    }
    for (size_t cand = 0; cand < k; ++cand) {
      if (stats[cand].count() < 5) continue;
      const double threshold = stats[cand].mean();
      split_left_.assign(k, 0.0);
      split_right_.assign(k, 0.0);
      for (size_t c = 0; c < k; ++c) {
        double n = leaf.class_counts[c];
        if (n <= 0.0) continue;
        if (stats[c].count() < 2) {
          split_left_[c] += n * 0.5;
          split_right_[c] += n * 0.5;
        } else {
          double p_left =
              NormalCdf((threshold - stats[c].mean()) / split_sd_[c]);
          split_left_[c] += n * p_left;
          split_right_[c] += n * (1.0 - p_left);
        }
      }
      double nl = 0.0, nr = 0.0;
      for (size_t c = 0; c < k; ++c) {
        nl += split_left_[c];
        nr += split_right_[c];
      }
      double h_split = (nl / total) * Entropy(split_left_) +
                       (nr / total) * Entropy(split_right_);
      double gain = h0 - h_split;
      if (gain > best_gain) {
        second_gain = best_gain;
        best_gain = gain;
        best_feature = f;
        best_threshold = threshold;
      } else if (gain > second_gain) {
        second_gain = gain;
      }
    }
  }
  if (best_feature < 0) return;

  double range = std::log2(std::max(2, schema_.num_classes));
  double eps = HoeffdingBound(range, params_.split_confidence, leaf.total);
  bool separated = best_gain - second_gain > eps;
  bool tie = eps < params_.tie_threshold;
  if (best_gain <= 1e-3 || (!separated && !tie)) return;

  // Split: children inherit the parent's perceptron configuration; their
  // statistics restart (standard Hoeffding-tree behaviour).
  int left_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  int right_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  // note: `node` reference may dangle after emplace_back; re-acquire.
  Node& parent = nodes_[static_cast<size_t>(node_index)];
  nodes_[static_cast<size_t>(left_index)].depth = parent.depth + 1;
  nodes_[static_cast<size_t>(right_index)].depth = parent.depth + 1;
  InitLeaf(&nodes_[static_cast<size_t>(left_index)]);
  InitLeaf(&nodes_[static_cast<size_t>(right_index)]);
  parent.feature = best_feature;
  parent.threshold = best_threshold;
  parent.left = left_index;
  parent.right = right_index;
  parent.leaf.reset();
  num_leaves_ += 1;  // One leaf became two.
}

void CsPerceptronTree::Train(const Instance& instance) {
  int y = instance.label;
  if (y < 0 || y >= schema_.num_classes) return;
  int idx = Route(instance);
  Node& node = nodes_[static_cast<size_t>(idx)];
  Leaf& leaf = *node.leaf;

  leaf.class_counts[static_cast<size_t>(y)] += 1.0;
  leaf.total += 1.0;
  size_t d = std::min(instance.features.size(), leaf.feature_stats.size());
  for (size_t i = 0; i < d; ++i) {
    leaf.feature_stats[i][static_cast<size_t>(y)].Add(instance.features[i]);
  }
  leaf.perceptron->Train(instance);

  if (++leaf.since_split_check >= params_.grace_period) {
    leaf.since_split_check = 0;
    MaybeSplit(idx);
  }
}

std::vector<double> CsPerceptronTree::PredictScores(
    const Instance& instance) const {
  std::vector<double> scores;
  PredictScoresInto(instance, scores);
  return scores;
}

void CsPerceptronTree::PredictScoresInto(const Instance& instance,
                                         std::vector<double>& out) const {
  int idx = Route(instance);
  const Leaf& leaf = *nodes_[static_cast<size_t>(idx)].leaf;
  leaf.perceptron->PredictScoresInto(instance, out);
  std::vector<double>& scores = out;

  // Young leaves have unreliable perceptrons: blend with the leaf's class
  // frequency estimate (Laplace-smoothed), fading out by 100 instances.
  double maturity = std::min(leaf.total / 100.0, 1.0);
  double total = leaf.total + static_cast<double>(schema_.num_classes);
  for (size_t c = 0; c < scores.size(); ++c) {
    double freq = (leaf.class_counts[c] + 1.0) / total;
    scores[c] = maturity * scores[c] + (1.0 - maturity) * freq;
  }
  // Renormalize (the blend keeps it close to 1 already).
  double s = 0.0;
  for (double v : scores) s += v;
  for (double& v : scores) v /= s;
}

int CsPerceptronTree::depth() const {
  int max_depth = 0;
  for (const Node& n : nodes_) max_depth = std::max(max_depth, n.depth);
  return max_depth;
}

std::unique_ptr<OnlineClassifier> CsPerceptronTree::Clone() const {
  return std::make_unique<CsPerceptronTree>(schema_, params_);
}

void CsPerceptronTree::SaveState(io::Writer& w) const {
  w.BeginSection("CSPerceptronTree");
  w.I64(num_leaves_);
  w.U32(static_cast<uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    w.I64(node.feature);
    w.F64(node.threshold);
    w.I64(node.left);
    w.I64(node.right);
    w.I64(node.depth);
    w.Bool(node.leaf != nullptr);
    if (node.leaf == nullptr) continue;
    w.F64Array(node.leaf->class_counts);
    w.U32(static_cast<uint32_t>(node.leaf->feature_stats.size()));
    for (const std::vector<Welford>& per_class : node.leaf->feature_stats) {
      w.U32(static_cast<uint32_t>(per_class.size()));
      for (const Welford& s : per_class) io::WriteWelford(w, s);
    }
    w.Bool(node.leaf->perceptron != nullptr);
    if (node.leaf->perceptron != nullptr) {
      node.leaf->perceptron->SaveState(w);
    }
    w.I64(node.leaf->since_split_check);
    w.F64(node.leaf->total);
  }
  w.EndSection();
}

void CsPerceptronTree::LoadState(io::Reader& r) {
  r.BeginSection("CSPerceptronTree");
  num_leaves_ = static_cast<int>(r.I64("tree.num_leaves"));
  uint32_t count = r.Count("tree.nodes");
  if (count == 0) r.Fail("tree.nodes", "a live tree always has a root");
  nodes_.clear();
  nodes_.reserve(count);
  for (uint32_t idx = 0; idx < count; ++idx) {
    Node n;
    n.feature = static_cast<int>(r.I64("tree.node.feature"));
    n.threshold = r.F64("tree.node.threshold");
    n.left = static_cast<int>(r.I64("tree.node.left"));
    n.right = static_cast<int>(r.I64("tree.node.right"));
    n.depth = static_cast<int>(r.I64("tree.node.depth"));
    // Route walks from the root to a node with feature -1 and scores with
    // that node's leaf perceptron. MaybeSplit appends children after their
    // parent, so every walk strictly increases the index and ends in range.
    if (n.feature < -1 || n.feature >= schema_.num_features) {
      r.Fail("tree.node.feature",
             "node " + std::to_string(idx) + " splits on feature " +
                 std::to_string(n.feature) + ", schema has " +
                 std::to_string(schema_.num_features));
    }
    if (n.feature >= 0) {
      const int own = static_cast<int>(idx);
      const int end = static_cast<int>(count);
      if (n.left <= own || n.left >= end) {
        r.Fail("tree.node.left",
               "node " + std::to_string(idx) + " has left child " +
                   std::to_string(n.left) + ", expected one in (" +
                   std::to_string(idx) + ", " + std::to_string(count) + ")");
      }
      if (n.right <= own || n.right >= end) {
        r.Fail("tree.node.right",
               "node " + std::to_string(idx) + " has right child " +
                   std::to_string(n.right) + ", expected one in (" +
                   std::to_string(idx) + ", " + std::to_string(count) + ")");
      }
    }
    const bool has_leaf = r.Bool("tree.node.has_leaf");
    if (n.feature == -1 && !has_leaf) {
      r.Fail("tree.node.has_leaf",
             "leaf node " + std::to_string(idx) + " has no leaf record");
    }
    if (has_leaf) {
      n.leaf = std::make_unique<Leaf>();
      n.leaf->class_counts = r.F64Array("tree.leaf.class_counts");
      if (n.leaf->class_counts.size() !=
          static_cast<size_t>(schema_.num_classes)) {
        r.Fail("tree.leaf.class_counts", "size does not match schema");
      }
      uint32_t d = r.Count("tree.leaf.feature_stats");
      if (d != static_cast<uint32_t>(schema_.num_features)) {
        r.Fail("tree.leaf.feature_stats",
               std::to_string(d) + " feature rows, schema has " +
                   std::to_string(schema_.num_features));
      }
      n.leaf->feature_stats.clear();
      for (uint32_t i = 0; i < d; ++i) {
        uint32_t k = r.Count("tree.leaf.feature_stats.row");
        if (k != static_cast<uint32_t>(schema_.num_classes)) {
          r.Fail("tree.leaf.feature_stats.row",
                 "class column count does not match schema");
        }
        std::vector<Welford> per_class;
        per_class.reserve(k);
        for (uint32_t c = 0; c < k; ++c) per_class.push_back(io::ReadWelford(r));
        n.leaf->feature_stats.push_back(std::move(per_class));
      }
      if (r.Bool("tree.leaf.has_perceptron")) {
        n.leaf->perceptron =
            std::make_unique<SoftmaxPerceptron>(schema_, params_.leaf_params);
        n.leaf->perceptron->LoadState(r);
      }
      if (n.leaf->perceptron == nullptr) {
        r.Fail("tree.leaf.has_perceptron",
               "node " + std::to_string(idx) + " has a leaf without a "
               "perceptron");
      }
      n.leaf->since_split_check =
          static_cast<int>(r.I64("tree.leaf.since_split_check"));
      n.leaf->total = r.F64("tree.leaf.total");
    }
    nodes_.push_back(std::move(n));
  }
  r.EndSection("CSPerceptronTree");
}

}  // namespace ccd
