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
///
/// Scoring reads a per-(class, feature) likelihood cache instead of
/// recomputing it per call. Invariant: `likelihood_[k][i]` always equals
/// what `stats_[k][i]` implies — `ready` is `count() >= 2`, `var` is
/// `Variance() + 1e-4` and `log_norm` is `log(2π·var)`. `Train` refreshes
/// the features it touched in the trained class's row; `Reset` and
/// `LoadState` rebuild every row. The cache is derived from `stats_`
/// alone, so it is never serialized: the wire format is unchanged and a
/// loaded model recomputes exactly the values a live one holds.
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
  // ccd:state-skip(schema_, construction-time configuration; io::ShardIdentity carries it)
  StreamSchema schema_;
  /// stats_[k][i] models feature i under class k.
  std::vector<std::vector<Welford>> stats_;
  std::vector<double> class_counts_;
  double total_ = 0.0;

  /// One feature's Gaussian likelihood terms under one class.
  struct Likelihood {
    bool ready = false;     ///< count() >= 2; otherwise the feature is skipped.
    double var = 0.0;       ///< Variance() + 1e-4 (the variance floor).
    double log_norm = 0.0;  ///< log(2π·var).
  };

  /// Recomputes likelihood_[k][i] for i < d from stats_[k][i].
  void RefreshLikelihood(size_t k, size_t d);
  /// Sizes likelihood_ like stats_ and recomputes every entry.
  void RebuildLikelihood();

  // ccd:state-skip(likelihood_, derived from stats_ by RefreshLikelihood; Reset and LoadState rebuild it)
  std::vector<std::vector<Likelihood>> likelihood_;
};

}  // namespace ccd

#endif  // CCD_CLASSIFIERS_NAIVE_BAYES_H_
