#ifndef CCD_CLASSIFIERS_NAIVE_BAYES_H_
#define CCD_CLASSIFIERS_NAIVE_BAYES_H_

#include <memory>
#include <vector>

#include "classifiers/classifier.h"
#include "stats/welford.h"

namespace ccd {

/// Online Gaussian naive Bayes: per class and feature an incremental
/// mean/variance estimate, with Laplace-smoothed class priors. A standard
/// lightweight streaming learner; used in tests and as an alternative leaf
/// predictor.
class GaussianNaiveBayes : public OnlineClassifier {
 public:
  explicit GaussianNaiveBayes(const StreamSchema& schema);

  const StreamSchema& schema() const override { return schema_; }
  void Train(const Instance& instance) override;
  std::vector<double> PredictScores(const Instance& instance) const override;
  void PredictScoresInto(const Instance& instance,
                         std::vector<double>& out) const override;
  void Reset() override;
  std::unique_ptr<OnlineClassifier> Clone() const override;
  std::string name() const override { return "GaussianNB"; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  StreamSchema schema_;
  /// stats_[k][i] models feature i under class k.
  std::vector<std::vector<Welford>> stats_;
  std::vector<double> class_counts_;
  double total_ = 0.0;
};

}  // namespace ccd

#endif  // CCD_CLASSIFIERS_NAIVE_BAYES_H_
