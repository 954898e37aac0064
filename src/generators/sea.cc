#include "generators/sea.h"

#include <algorithm>

namespace ccd {

SeaConcept::SeaConcept(const Options& options, uint64_t seed)
    : schema_(std::max(options.num_features, 2), options.num_classes, "sea"),
      opt_(options) {
  opt_.num_features = schema_.num_features;
  int d = opt_.num_features;
  f1_ = opt_.variant % d;
  f2_ = (opt_.variant + 1) % d;
  if (f2_ == f1_) f2_ = (f1_ + 1) % d;

  Rng rng(seed ^ 0x165667b19e3779f9ULL);
  std::vector<double> scores(static_cast<size_t>(opt_.probe_samples));
  for (double& s : scores) {
    s = rng.NextDouble() + rng.NextDouble() +
        rng.Gaussian(0.0, opt_.score_noise);
  }
  std::sort(scores.begin(), scores.end());
  thresholds_.clear();
  for (int k = 1; k < opt_.num_classes; ++k) {
    size_t idx = static_cast<size_t>(
        static_cast<double>(k) / opt_.num_classes * scores.size());
    if (idx >= scores.size()) idx = scores.size() - 1;
    thresholds_.push_back(scores[idx]);
  }
}

int SeaConcept::Classify(double score) const {
  int k = 0;
  while (k < static_cast<int>(thresholds_.size()) &&
         score >= thresholds_[static_cast<size_t>(k)]) {
    ++k;
  }
  return k;
}

int SeaConcept::Sample(Rng* rng, std::vector<double>* x) const {
  x->resize(static_cast<size_t>(opt_.num_features));
  for (double& v : *x) v = rng->NextDouble();
  double score = (*x)[static_cast<size_t>(f1_)] +
                 (*x)[static_cast<size_t>(f2_)] +
                 rng->Gaussian(0.0, opt_.score_noise);
  return Classify(score);
}

}  // namespace ccd
