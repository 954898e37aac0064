#include "classifiers/naive_bayes.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

GaussianNaiveBayes::GaussianNaiveBayes(const StreamSchema& schema)
    : schema_(schema) {
  Reset();
}

void GaussianNaiveBayes::Reset() {
  stats_.assign(static_cast<size_t>(schema_.num_classes),
                std::vector<Welford>(static_cast<size_t>(schema_.num_features)));
  class_counts_.assign(static_cast<size_t>(schema_.num_classes), 0.0);
  total_ = 0.0;
  RebuildLikelihood();
}

void GaussianNaiveBayes::RebuildLikelihood() {
  likelihood_.resize(stats_.size());
  for (size_t k = 0; k < stats_.size(); ++k) {
    likelihood_[k].resize(stats_[k].size());
    RefreshLikelihood(k, stats_[k].size());
  }
}

void GaussianNaiveBayes::RefreshLikelihood(size_t k, size_t d) {
  const std::vector<Welford>& row = stats_[k];
  std::vector<Likelihood>& terms = likelihood_[k];
  for (size_t i = 0; i < d; ++i) {
    Likelihood& t = terms[i];
    t.ready = row[i].count() >= 2;
    t.var = row[i].Variance() + 1e-4;  // Variance floor.
    t.log_norm = std::log(2.0 * M_PI * t.var);
  }
}

void GaussianNaiveBayes::Train(const Instance& instance) {
  int y = instance.label;
  if (y < 0 || y >= schema_.num_classes) return;
  auto& row = stats_[static_cast<size_t>(y)];
  size_t d = std::min(instance.features.size(), row.size());
  for (size_t i = 0; i < d; ++i) row[i].Add(instance.features[i]);
  class_counts_[static_cast<size_t>(y)] += 1.0;
  total_ += 1.0;
  RefreshLikelihood(static_cast<size_t>(y), d);
}

std::vector<double> GaussianNaiveBayes::PredictScores(
    const Instance& instance) const {
  std::vector<double> scores;
  PredictScoresInto(instance, scores);
  return scores;
}

void GaussianNaiveBayes::PredictScoresInto(const Instance& instance,
                                           std::vector<double>& out) const {
  const size_t k = stats_.size();
  out.assign(k, 0.0);
  std::vector<double>& log_probs = out;
  double max_lp = -1e300;
  for (size_t c = 0; c < k; ++c) {
    // Laplace-smoothed prior.
    double lp = std::log((class_counts_[c] + 1.0) /
                         (total_ + static_cast<double>(k)));
    const auto& row = stats_[c];
    const auto& terms = likelihood_[c];
    size_t d = std::min(instance.features.size(), row.size());
    for (size_t i = 0; i < d; ++i) {
      if (!terms[i].ready) continue;
      double diff = instance.features[i] - row[i].mean();
      lp += -0.5 * (terms[i].log_norm + diff * diff / terms[i].var);
    }
    log_probs[c] = lp;
    if (lp > max_lp) max_lp = lp;
  }
  double totalp = 0.0;
  for (double& lp : log_probs) {
    lp = std::exp(lp - max_lp);
    totalp += lp;
  }
  for (double& lp : log_probs) lp /= totalp;
}

std::unique_ptr<OnlineClassifier> GaussianNaiveBayes::Clone() const {
  return std::make_unique<GaussianNaiveBayes>(schema_);
}

void GaussianNaiveBayes::SaveState(io::Writer& w) const {
  w.BeginSection("GaussianNB");
  w.U32(static_cast<uint32_t>(stats_.size()));
  for (const std::vector<Welford>& row : stats_) {
    w.U32(static_cast<uint32_t>(row.size()));
    for (const Welford& s : row) io::WriteWelford(w, s);
  }
  w.F64Array(class_counts_);
  w.F64(total_);
  w.EndSection();
}

void GaussianNaiveBayes::LoadState(io::Reader& r) {
  r.BeginSection("GaussianNB");
  uint32_t k = r.Count("nb.stats");
  if (k != static_cast<uint32_t>(schema_.num_classes)) {
    r.Fail("nb.stats", std::to_string(k) + " class rows, schema has " +
                           std::to_string(schema_.num_classes));
  }
  stats_.clear();
  for (uint32_t c = 0; c < k; ++c) {
    uint32_t d = r.Count("nb.stats.row");
    if (d != static_cast<uint32_t>(schema_.num_features)) {
      r.Fail("nb.stats.row", std::to_string(d) + " features, schema has " +
                                 std::to_string(schema_.num_features));
    }
    std::vector<Welford> row;
    row.reserve(d);
    for (uint32_t i = 0; i < d; ++i) row.push_back(io::ReadWelford(r));
    stats_.push_back(std::move(row));
  }
  class_counts_ = r.F64Array("nb.class_counts");
  if (class_counts_.size() != static_cast<size_t>(schema_.num_classes)) {
    r.Fail("nb.class_counts", "size does not match schema");
  }
  total_ = r.F64("nb.total");
  r.EndSection("GaussianNB");
  RebuildLikelihood();
}

}  // namespace ccd
