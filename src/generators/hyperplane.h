#ifndef CCD_GENERATORS_HYPERPLANE_H_
#define CCD_GENERATORS_HYPERPLANE_H_

#include <memory>
#include <vector>

#include "generators/concept.h"

namespace ccd {

/// Multi-class rotating-hyperplane concept. Features are uniform on
/// [0,1]^d; the latent score s = w·x is banded into K classes by quantile
/// thresholds (estimated at construction by probing), so class regions are
/// parallel slabs. Drift rotates the hyperplane: interpolation of weights
/// produces genuine incremental drift; re-seeding produces a new orientation
/// for sudden/gradual drift. This generalizes MOA's binary Hyperplane
/// generator to the paper's K-class variants.
class HyperplaneConcept : public Concept {
 public:
  struct Options {
    int num_features = 10;
    int num_classes = 5;
    /// Standard deviation of zero-mean noise added to the score before
    /// banding (class overlap control).
    double score_noise = 0.02;
    /// Probe draws used to estimate quantile thresholds.
    int probe_samples = 4096;
  };

  HyperplaneConcept(const Options& options, uint64_t seed);

  const StreamSchema& schema() const override { return schema_; }
  int Sample(Rng* rng, std::vector<double>* x) const override;
  std::unique_ptr<Concept> Interpolate(const Concept& target,
                                       double alpha) const override;

  const std::vector<double>& weights() const { return w_; }

 private:
  HyperplaneConcept() = default;
  void ComputeThresholds(uint64_t probe_seed);
  int Classify(double score) const;

  StreamSchema schema_;
  Options opt_;
  std::vector<double> w_;
  std::vector<double> thresholds_;  ///< K-1 ascending cut points.
};

}  // namespace ccd

#endif  // CCD_GENERATORS_HYPERPLANE_H_
