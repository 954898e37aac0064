#ifndef CCD_GENERATORS_AGRAWAL_H_
#define CCD_GENERATORS_AGRAWAL_H_

#include <memory>
#include <vector>

#include "generators/concept.h"

namespace ccd {

/// Multi-class Agrawal concept. The classic Agrawal generator draws nine
/// census-style attributes (salary, commission, age, education level, car,
/// zipcode, house value, years owned, loan) and labels instances with one
/// of ten hand-crafted predicate functions. The paper's Aggrawal5/10/20
/// streams are K-class, d-feature variants; following that construction we
/// (a) keep the nine classic attributes (min-max scaled to [0,1]), padded
/// with irrelevant uniform noise features up to `num_features`, and
/// (b) replace the binary predicate with the function's underlying
/// *continuous* decision quantity, banded into K classes by quantile
/// thresholds. Switching `function_id` redefines the class regions —
/// the classic Agrawal notion of drift.
class AgrawalConcept : public Concept {
 public:
  static constexpr int kNumFunctions = 10;
  static constexpr int kBaseAttributes = 9;

  struct Options {
    int num_features = 20;   ///< >= 9; extras are noise attributes.
    int num_classes = 5;
    int function_id = 0;     ///< Concept variant in [0, kNumFunctions).
    double attribute_noise = 0.0;  ///< Stddev of post-hoc feature jitter.
    int probe_samples = 4096;
  };

  AgrawalConcept(const Options& options, uint64_t seed);

  const StreamSchema& schema() const override { return schema_; }
  int Sample(Rng* rng, std::vector<double>* x) const override;

 private:
  struct Raw {
    double salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan;
  };

  static Raw DrawRaw(Rng* rng);
  /// Continuous decision quantity of classic function `id` (piecewise in
  /// age/elevel like the original predicates).
  static double Score(int id, const Raw& r);
  void ComputeThresholds(uint64_t probe_seed);
  int Classify(double score) const;

  StreamSchema schema_;
  Options opt_;
  std::vector<double> thresholds_;
};

}  // namespace ccd

#endif  // CCD_GENERATORS_AGRAWAL_H_
