#include "generators/rbf.h"

#include <algorithm>
#include <cmath>

namespace ccd {

RbfConcept::RbfConcept(const Options& options, uint64_t seed)
    : schema_(options.num_features, options.num_classes, "rbf"),
      opt_(options) {
  Rng rng(seed);
  centroids_.resize(static_cast<size_t>(opt_.num_classes));
  for (auto& cls : centroids_) {
    cls.resize(static_cast<size_t>(opt_.centroids_per_class));
    for (auto& c : cls) {
      c.center.resize(static_cast<size_t>(opt_.num_features));
      for (double& v : c.center) v = rng.NextDouble();
      c.sigma = rng.Uniform(opt_.sigma_min, opt_.sigma_max);
      c.weight = rng.Uniform(0.2, 1.0);
    }
  }
  CacheWeights();
}

void RbfConcept::CacheWeights() {
  centroid_weights_.assign(centroids_.size(), {});
  class_weights_.assign(centroids_.size(), 0.0);
  for (size_t k = 0; k < centroids_.size(); ++k) {
    double s = 0.0;
    for (const Centroid& c : centroids_[k]) {
      centroid_weights_[k].push_back(c.weight);
      s += c.weight;
    }
    class_weights_[k] = s;
  }
}

void RbfConcept::SampleForClass(int k, Rng* rng, std::vector<double>* x) const {
  const size_t cls = static_cast<size_t>(k);
  const Centroid& c = centroids_[cls][static_cast<size_t>(
      rng->Discrete(centroid_weights_[cls]))];
  x->resize(c.center.size());
  double* out = x->data();
  for (size_t i = 0; i < c.center.size(); ++i) {
    out[i] = std::clamp(c.center[i] + rng->Gaussian(0.0, c.sigma), 0.0, 1.0);
  }
}

int RbfConcept::Sample(Rng* rng, std::vector<double>* x) const {
  // Natural class distribution: proportional to total centroid weight.
  int k = rng->Discrete(class_weights_);
  SampleForClass(k, rng, x);
  return k;
}

std::unique_ptr<Concept> RbfConcept::Interpolate(const Concept& target,
                                                 double alpha) const {
  const auto* other = dynamic_cast<const RbfConcept*>(&target);
  if (other == nullptr || other->centroids_.size() != centroids_.size()) {
    return nullptr;
  }
  auto out = std::unique_ptr<RbfConcept>(new RbfConcept());
  out->schema_ = schema_;
  out->opt_ = opt_;
  out->centroids_ = centroids_;
  for (size_t k = 0; k < centroids_.size(); ++k) {
    if (other->centroids_[k].size() != centroids_[k].size()) return nullptr;
    for (size_t i = 0; i < centroids_[k].size(); ++i) {
      auto& dst = out->centroids_[k][i];
      const auto& a = centroids_[k][i];
      const auto& b = other->centroids_[k][i];
      for (size_t dgt = 0; dgt < dst.center.size(); ++dgt) {
        dst.center[dgt] = (1.0 - alpha) * a.center[dgt] + alpha * b.center[dgt];
      }
      dst.sigma = (1.0 - alpha) * a.sigma + alpha * b.sigma;
      dst.weight = (1.0 - alpha) * a.weight + alpha * b.weight;
    }
  }
  out->CacheWeights();
  return out;
}

}  // namespace ccd
