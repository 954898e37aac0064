#include "generators/concept.h"

namespace ccd {

void Concept::SampleForClass(int k, Rng* rng, std::vector<double>* x) const {
  // Every try overwrites *x, so the last draw stays when none hits k.
  for (int i = 0; i < kMaxRejectionTries; ++i) {
    if (Sample(rng, x) == k) return;
  }
}

std::unique_ptr<Concept> Concept::Interpolate(const Concept& /*target*/,
                                              double /*alpha*/) const {
  return nullptr;
}

}  // namespace ccd
