#ifndef CCD_GENERATORS_SEA_H_
#define CCD_GENERATORS_SEA_H_

#include <memory>
#include <vector>

#include "generators/concept.h"

namespace ccd {

/// Multi-class SEA concept (Street & Kim's SEA generalized): two of the
/// features are relevant, their sum is banded into K classes by quantile
/// thresholds; the remaining features are irrelevant noise. Concept
/// variants rotate *which* pair of features is relevant, giving a sharp,
/// structural drift. Included beyond the paper's benchmark list to widen
/// generator coverage for tests and examples.
class SeaConcept : public Concept {
 public:
  struct Options {
    int num_features = 3;
    int num_classes = 2;
    int variant = 0;          ///< Selects the relevant feature pair.
    double score_noise = 0.1; ///< Class overlap control.
    int probe_samples = 4096;
  };

  SeaConcept(const Options& options, uint64_t seed);

  const StreamSchema& schema() const override { return schema_; }
  int Sample(Rng* rng, std::vector<double>* x) const override;

 private:
  int Classify(double score) const;

  StreamSchema schema_;
  Options opt_;
  int f1_ = 0, f2_ = 1;
  std::vector<double> thresholds_;
};

}  // namespace ccd

#endif  // CCD_GENERATORS_SEA_H_
