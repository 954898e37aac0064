#ifndef CCD_TESTS_CS_PTREE_ORACLE_H_
#define CCD_TESTS_CS_PTREE_ORACLE_H_

// The cs-ptree's growth path as it was before MaybeSplit hoisted its
// per-check and per-feature terms: every candidate threshold calls
// SplitGain, which recomputes the class total, h0 and each class's sd and
// builds two fresh count rows. Kept verbatim as the executable spec of
// CsPerceptronTree::MaybeSplit; classifiers_test drives both trees on one
// stream and compares their SaveState bytes. Only what a comparison needs
// is here — Train, the split test and SaveState — not prediction or
// LoadState.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "classifiers/cs_perceptron_tree.h"
#include "classifiers/perceptron.h"
#include "io/codecs.h"
#include "io/wire.h"
#include "stats/distributions.h"
#include "stats/welford.h"

namespace ccd {
namespace oracle {

class SplitGainTree {
 public:
  SplitGainTree(const StreamSchema& schema,
                const CsPerceptronTree::Params& params)
      : schema_(schema), params_(params) {
    Reset();
  }

  void Reset() {
    nodes_.clear();
    nodes_.emplace_back();
    nodes_[0].depth = 0;
    InitLeaf(&nodes_[0]);
    num_leaves_ = 1;
  }

  void Train(const Instance& instance) {
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

  void SaveState(io::Writer& w) const {
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

 private:
  struct Leaf {
    std::vector<double> class_counts;
    std::vector<std::vector<Welford>> feature_stats;
    std::unique_ptr<SoftmaxPerceptron> perceptron;
    int since_split_check = 0;
    double total = 0.0;
  };

  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1, right = -1;
    int depth = 0;
    std::unique_ptr<Leaf> leaf;
  };

  void InitLeaf(Node* node) {
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

  int Route(const Instance& instance) const {
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

  double Entropy(const std::vector<double>& counts) const {
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

  double SplitGain(const Leaf& leaf, int feature, double threshold) const {
    const size_t k = leaf.class_counts.size();
    std::vector<double> left(k, 0.0), right(k, 0.0);
    double total = 0.0;
    for (size_t c = 0; c < k; ++c) {
      double n = leaf.class_counts[c];
      if (n <= 0.0) continue;
      const Welford& w = leaf.feature_stats[static_cast<size_t>(feature)][c];
      if (w.count() < 2) {
        left[c] += n * 0.5;
        right[c] += n * 0.5;
      } else {
        double sd = std::max(std::sqrt(w.Variance()), 1e-3);
        double p_left = NormalCdf((threshold - w.mean()) / sd);
        left[c] += n * p_left;
        right[c] += n * (1.0 - p_left);
      }
      total += n;
    }
    if (total <= 0.0) return 0.0;
    double nl = 0.0, nr = 0.0;
    for (size_t c = 0; c < k; ++c) {
      nl += left[c];
      nr += right[c];
    }
    double h0 = Entropy(leaf.class_counts);
    double h_split =
        (nl / total) * Entropy(left) + (nr / total) * Entropy(right);
    return h0 - h_split;
  }

  void MaybeSplit(int node_index) {
    Node& node = nodes_[static_cast<size_t>(node_index)];
    Leaf& leaf = *node.leaf;
    if (node.depth >= params_.max_depth ||
        num_leaves_ >= params_.max_leaves) {
      return;
    }

    double best_gain = 0.0, second_gain = 0.0;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (int f = 0; f < schema_.num_features; ++f) {
      for (size_t c = 0; c < leaf.class_counts.size(); ++c) {
        const Welford& w = leaf.feature_stats[static_cast<size_t>(f)][c];
        if (w.count() < 5) continue;
        double gain = SplitGain(leaf, f, w.mean());
        if (gain > best_gain) {
          second_gain = best_gain;
          best_gain = gain;
          best_feature = f;
          best_threshold = w.mean();
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

    int left_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    int right_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
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
    num_leaves_ += 1;
  }

  StreamSchema schema_;
  CsPerceptronTree::Params params_;
  std::vector<Node> nodes_;
  int num_leaves_ = 0;
};

}  // namespace oracle
}  // namespace ccd

#endif  // CCD_TESTS_CS_PTREE_ORACLE_H_
