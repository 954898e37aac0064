#include "generators/hyperplane.h"

#include <algorithm>

namespace ccd {

HyperplaneConcept::HyperplaneConcept(const Options& options, uint64_t seed)
    : schema_(options.num_features, options.num_classes, "hyperplane"),
      opt_(options) {
  Rng rng(seed);
  w_.resize(static_cast<size_t>(opt_.num_features));
  for (double& v : w_) v = rng.Uniform(-1.0, 1.0);
  ComputeThresholds(seed ^ 0x9e3779b97f4a7c15ULL);
}

void HyperplaneConcept::ComputeThresholds(uint64_t probe_seed) {
  Rng rng(probe_seed);
  std::vector<double> scores(static_cast<size_t>(opt_.probe_samples));
  std::vector<double> x(w_.size());
  for (double& s : scores) {
    double acc = 0.0;
    for (size_t i = 0; i < w_.size(); ++i) acc += w_[i] * rng.NextDouble();
    s = acc;
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

int HyperplaneConcept::Classify(double score) const {
  int k = 0;
  while (k < static_cast<int>(thresholds_.size()) &&
         score >= thresholds_[static_cast<size_t>(k)]) {
    ++k;
  }
  return k;
}

int HyperplaneConcept::Sample(Rng* rng, std::vector<double>* x) const {
  x->resize(w_.size());
  double* out = x->data();
  double score = 0.0;
  for (size_t i = 0; i < w_.size(); ++i) {
    out[i] = rng->NextDouble();
    score += w_[i] * out[i];
  }
  if (opt_.score_noise > 0.0) score += rng->Gaussian(0.0, opt_.score_noise);
  return Classify(score);
}

std::unique_ptr<Concept> HyperplaneConcept::Interpolate(const Concept& target,
                                                        double alpha) const {
  const auto* other = dynamic_cast<const HyperplaneConcept*>(&target);
  if (other == nullptr || other->w_.size() != w_.size()) return nullptr;
  auto out = std::unique_ptr<HyperplaneConcept>(new HyperplaneConcept());
  out->schema_ = schema_;
  out->opt_ = opt_;
  out->w_.resize(w_.size());
  for (size_t i = 0; i < w_.size(); ++i) {
    out->w_[i] = (1.0 - alpha) * w_[i] + alpha * other->w_[i];
  }
  // Threshold estimation must track the morphing weights so bands keep
  // roughly equal natural mass.
  out->ComputeThresholds(0xabcdef12u + static_cast<uint64_t>(alpha * 1000));
  return out;
}

}  // namespace ccd
