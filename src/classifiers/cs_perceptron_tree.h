#ifndef CCD_CLASSIFIERS_CS_PERCEPTRON_TREE_H_
#define CCD_CLASSIFIERS_CS_PERCEPTRON_TREE_H_

#include <memory>
#include <vector>

#include "classifiers/classifier.h"
#include "classifiers/perceptron.h"
#include "stats/welford.h"

namespace ccd {

/// Adaptive Cost-Sensitive Perceptron Tree (after Krawczyk & Skryjomski,
/// ECML PKDD 2017) — the base classifier of the paper's experimental study.
///
/// A Hoeffding-style incremental decision tree whose leaves hold
/// cost-sensitive softmax perceptrons:
///
///  * every leaf keeps per-class Gaussian estimators for each feature;
///    every `grace_period` instances it evaluates candidate binary splits
///    (thresholds at the class means) by information gain and splits when
///    the Hoeffding bound separates the two best candidates (or they tie
///    within `tie_threshold`);
///  * each leaf trains a SoftmaxPerceptron on the instances it receives,
///    with updates weighted by inverse class frequency (skew-insensitive);
///  * predictions route to a leaf and blend the leaf perceptron's scores
///    with the leaf's class frequencies while the perceptron is young.
///
/// The tree has no embedded drift handling by design: it relies on an
/// external drift detector to call Reset() — exactly the coupling the
/// paper's experiments measure.
class CsPerceptronTree : public OnlineClassifier {
 public:
  struct Params {
    int grace_period = 200;
    double split_confidence = 1e-6;  ///< Hoeffding bound delta.
    double tie_threshold = 0.05;
    int max_depth = 10;
    int max_leaves = 64;
    SoftmaxPerceptron::Params leaf_params;
  };

  explicit CsPerceptronTree(const StreamSchema& schema)
      : CsPerceptronTree(schema, Params()) {}
  CsPerceptronTree(const StreamSchema& schema, const Params& params);

  const StreamSchema& schema() const override { return schema_; }
  void Train(const Instance& instance) override;
  std::vector<double> PredictScores(const Instance& instance) const override;
  void PredictScoresInto(const Instance& instance,
                         std::vector<double>& out) const override;
  void Reset() override;
  std::unique_ptr<OnlineClassifier> Clone() const override;
  std::string name() const override { return "CSPerceptronTree"; }
  /// Serializes the whole tree: node topology, per-leaf Gaussian
  /// estimators and the trained leaf perceptrons.
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

  int num_leaves() const { return num_leaves_; }
  int depth() const;

 private:
  struct Leaf {
    std::vector<double> class_counts;
    /// feature_stats[i][k] = Welford of feature i under class k.
    std::vector<std::vector<Welford>> feature_stats;
    std::unique_ptr<SoftmaxPerceptron> perceptron;
    int since_split_check = 0;
    double total = 0.0;
  };

  struct Node {
    int feature = -1;  ///< -1 marks a leaf.
    double threshold = 0.0;
    int left = -1, right = -1;
    int depth = 0;
    std::unique_ptr<Leaf> leaf;
  };

  int Route(const Instance& instance) const;
  void InitLeaf(Node* node);
  void MaybeSplit(int node_index);
  double Entropy(const std::vector<double>& counts) const;

  // ccd:state-skip(schema_, construction-time configuration; io::ShardIdentity carries it)
  StreamSchema schema_;
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  std::vector<Node> nodes_;
  int num_leaves_ = 0;
  // ccd:state-skip(split_sd_, transient MaybeSplit scratch rewritten per feature before every read; no model state)
  std::vector<double> split_sd_;
  // ccd:state-skip(split_left_, transient MaybeSplit scratch zeroed per candidate; no model state)
  std::vector<double> split_left_;
  // ccd:state-skip(split_right_, transient MaybeSplit scratch zeroed per candidate; no model state)
  std::vector<double> split_right_;
};

}  // namespace ccd

#endif  // CCD_CLASSIFIERS_CS_PERCEPTRON_TREE_H_
