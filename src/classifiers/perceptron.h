#ifndef CCD_CLASSIFIERS_PERCEPTRON_H_
#define CCD_CLASSIFIERS_PERCEPTRON_H_

#include <memory>
#include <vector>

#include "classifiers/classifier.h"

namespace ccd {

/// Online multi-class softmax (logistic) perceptron with optional
/// cost-sensitive updates.
///
/// Maintains one weight vector (+bias) per class trained by SGD on the
/// cross-entropy loss. When `cost_sensitive` is set, each update is scaled
/// by the inverse decayed frequency of the instance's class, which is the
/// standard cost-vector choice for skewed streams and the mechanism the
/// Adaptive Cost-Sensitive Perceptron Tree (Krawczyk & Skryjomski, ECML
/// PKDD 2017) applies at its leaves.
class SoftmaxPerceptron : public OnlineClassifier {
 public:
  struct Params {
    double learning_rate = 0.1;
    bool cost_sensitive = true;
    double count_decay = 0.9995;  ///< Class-frequency forgetting factor.
    double max_cost = 10.0;       ///< Clamp on the per-class cost weight.
  };

  explicit SoftmaxPerceptron(const StreamSchema& schema)
      : SoftmaxPerceptron(schema, Params()) {}
  SoftmaxPerceptron(const StreamSchema& schema, const Params& params);

  const StreamSchema& schema() const override { return schema_; }
  void Train(const Instance& instance) override;
  std::vector<double> PredictScores(const Instance& instance) const override;
  void PredictScoresInto(const Instance& instance,
                         std::vector<double>& out) const override;
  void Reset() override;
  std::unique_ptr<OnlineClassifier> Clone() const override;
  std::string name() const override { return "SoftmaxPerceptron"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

  /// Cost weight currently applied to class k's updates.
  double CostWeight(int k) const;

 private:
  // ccd:state-skip(schema_, construction-time configuration; io::ShardIdentity carries it)
  StreamSchema schema_;
  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  /// weights_[k] has d+1 entries (bias last).
  std::vector<std::vector<double>> weights_;
  std::vector<double> class_counts_;
  double total_count_ = 0.0;
  // ccd:state-skip(train_probs_, transient per-update scratch rewritten by every Train call; holds no learned state)
  std::vector<double> train_probs_;
};

}  // namespace ccd

#endif  // CCD_CLASSIFIERS_PERCEPTRON_H_
