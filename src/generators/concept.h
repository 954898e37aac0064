#ifndef CCD_GENERATORS_CONCEPT_H_
#define CCD_GENERATORS_CONCEPT_H_

#include <memory>
#include <vector>

#include "stream/instance.h"
#include "utils/rng.h"

namespace ccd {

/// A fixed joint distribution p(x, y) — one "concept" in the concept-drift
/// sense (Sec. II of the paper). Concept drift is modelled as transitions
/// between Concept objects; class imbalance is imposed on top by sampling
/// the class first and asking the concept for class-conditional features.
class Concept {
 public:
  virtual ~Concept() = default;

  virtual const StreamSchema& schema() const = 0;

  /// Draws one instance from the concept's natural joint distribution:
  /// writes its features into the caller's row `*x` (resized to the
  /// schema's width, so a reused row allocates nothing) and returns its
  /// label.
  virtual int Sample(Rng* rng, std::vector<double>* x) const = 0;

  /// Draws a feature vector conditioned on class `k` into `*x`. The
  /// default implementation rejection-samples Sample() into `*x`; families
  /// with an explicit class-conditional structure (RBF clusters,
  /// RandomTree leaves) override this with an exact, O(1) sampler.
  virtual void SampleForClass(int k, Rng* rng, std::vector<double>* x) const;

  /// Returns a new concept that is the parameter-space interpolation
  /// (1-alpha)*this + alpha*target, when the family supports it (Hyperplane
  /// weights, RBF centroids). Returns nullptr otherwise; callers then fall
  /// back to distribution mixing, which realizes the same marginal as
  /// Eq. 3 of the paper.
  virtual std::unique_ptr<Concept> Interpolate(const Concept& target,
                                               double alpha) const;

 protected:
  /// Maximum attempts for the default rejection sampler before giving up
  /// and returning the last draw (keeps the stream total; the mislabeled
  /// instance acts as label noise at a ~K*exp(-200/K) rate).
  static constexpr int kMaxRejectionTries = 256;
};

}  // namespace ccd

#endif  // CCD_GENERATORS_CONCEPT_H_
