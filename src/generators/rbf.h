#ifndef CCD_GENERATORS_RBF_H_
#define CCD_GENERATORS_RBF_H_

#include <memory>
#include <vector>

#include "generators/concept.h"

namespace ccd {

/// Radial-basis-function concept (MOA's RandomRBF generalized to
/// class-conditional sampling): each class owns a set of Gaussian centroids
/// in [0,1]^d with per-centroid spread and weight. Class-conditional
/// sampling is exact (pick a centroid of that class, perturb), which keeps
/// extreme imbalance ratios cheap. Supports parameter interpolation
/// (centroid positions/spreads), so incremental drift is genuine concept
/// morphing rather than distribution mixing.
class RbfConcept : public Concept {
 public:
  struct Options {
    int num_features = 10;
    int num_classes = 5;
    int centroids_per_class = 3;
    double sigma_min = 0.03;
    double sigma_max = 0.12;
  };

  /// Randomly places centroids using `seed`. Distinct seeds give distinct
  /// concepts of the same shape (the unit of drift).
  RbfConcept(const Options& options, uint64_t seed);

  const StreamSchema& schema() const override { return schema_; }
  int Sample(Rng* rng, std::vector<double>* x) const override;
  void SampleForClass(int k, Rng* rng,
                      std::vector<double>* x) const override;
  std::unique_ptr<Concept> Interpolate(const Concept& target,
                                       double alpha) const override;

 private:
  struct Centroid {
    std::vector<double> center;
    double sigma;
    double weight;
  };

  RbfConcept() = default;  // For Interpolate.
  /// Fills the two weight tables below from centroids_.
  void CacheWeights();

  StreamSchema schema_;
  Options opt_;
  /// centroids_[k] = centroids of class k.
  std::vector<std::vector<Centroid>> centroids_;
  /// centroid_weights_[k][i] = centroids_[k][i].weight, and class_weights_[k]
  /// their sum: the Discrete() tables of SampleForClass and Sample, derived
  /// once instead of on every draw.
  std::vector<std::vector<double>> centroid_weights_;
  std::vector<double> class_weights_;
};

}  // namespace ccd

#endif  // CCD_GENERATORS_RBF_H_
