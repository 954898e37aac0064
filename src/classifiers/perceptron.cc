#include "classifiers/perceptron.h"

#include <algorithm>
#include <cmath>

#include "io/codecs.h"

namespace ccd {

SoftmaxPerceptron::SoftmaxPerceptron(const StreamSchema& schema,
                                     const Params& params)
    : schema_(schema), params_(params) {
  Reset();
}

void SoftmaxPerceptron::Reset() {
  weights_.assign(static_cast<size_t>(schema_.num_classes),
                  std::vector<double>(
                      static_cast<size_t>(schema_.num_features) + 1, 0.0));
  class_counts_.assign(static_cast<size_t>(schema_.num_classes), 0.0);
  total_count_ = 0.0;
}

std::vector<double> SoftmaxPerceptron::PredictScores(
    const Instance& instance) const {
  std::vector<double> scores;
  PredictScoresInto(instance, scores);
  return scores;
}

void SoftmaxPerceptron::PredictScoresInto(const Instance& instance,
                                          std::vector<double>& out) const {
  const size_t k = weights_.size();
  out.assign(k, 0.0);
  std::vector<double>& logits = out;
  double max_logit = -1e300;
  for (size_t c = 0; c < k; ++c) {
    const auto& w = weights_[c];
    double z = w.back();
    size_t d = std::min(instance.features.size(), w.size() - 1);
    for (size_t i = 0; i < d; ++i) z += w[i] * instance.features[i];
    logits[c] = z;
    max_logit = std::max(max_logit, z);
  }
  double total = 0.0;
  for (double& z : logits) {
    z = std::exp(z - max_logit);
    total += z;
  }
  for (double& z : logits) z /= total;
}

double SoftmaxPerceptron::CostWeight(int k) const {
  if (!params_.cost_sensitive || total_count_ <= 0.0) return 1.0;
  double freq = class_counts_[static_cast<size_t>(k)] / total_count_;
  double uniform = 1.0 / static_cast<double>(schema_.num_classes);
  if (freq <= 0.0) return params_.max_cost;
  return std::clamp(uniform / freq, 1.0 / params_.max_cost, params_.max_cost);
}

void SoftmaxPerceptron::Train(const Instance& instance) {
  int y = instance.label;
  if (y < 0 || y >= schema_.num_classes) return;

  // Decayed class frequency bookkeeping.
  for (double& c : class_counts_) c *= params_.count_decay;
  total_count_ = total_count_ * params_.count_decay + 1.0;
  class_counts_[static_cast<size_t>(y)] += 1.0;

  PredictScoresInto(instance, train_probs_);
  const std::vector<double>& probs = train_probs_;
  double lr = params_.learning_rate * CostWeight(y) * instance.weight;
  for (size_t c = 0; c < weights_.size(); ++c) {
    double err = (static_cast<int>(c) == y ? 1.0 : 0.0) - probs[c];
    if (err == 0.0) continue;
    auto& w = weights_[c];
    double step = lr * err;
    size_t d = std::min(instance.features.size(), w.size() - 1);
    for (size_t i = 0; i < d; ++i) w[i] += step * instance.features[i];
    w.back() += step;
  }
}

std::unique_ptr<OnlineClassifier> SoftmaxPerceptron::Clone() const {
  return std::make_unique<SoftmaxPerceptron>(schema_, params_);
}

void SoftmaxPerceptron::SaveState(io::Writer& w) const {
  w.BeginSection("SoftmaxPerceptron");
  w.U32(static_cast<uint32_t>(weights_.size()));
  for (const std::vector<double>& row : weights_) w.F64Array(row);
  w.F64Array(class_counts_);
  w.F64(total_count_);
  w.EndSection();
}

void SoftmaxPerceptron::LoadState(io::Reader& r) {
  r.BeginSection("SoftmaxPerceptron");
  uint32_t k = r.Count("perceptron.weights");
  if (k != static_cast<uint32_t>(schema_.num_classes)) {
    r.Fail("perceptron.weights", std::to_string(k) +
                                     " weight rows, schema has " +
                                     std::to_string(schema_.num_classes));
  }
  weights_.clear();
  size_t width = static_cast<size_t>(schema_.num_features) + 1;
  for (uint32_t c = 0; c < k; ++c) {
    std::vector<double> row = r.F64Array("perceptron.weights.row");
    if (row.size() != width) {
      r.Fail("perceptron.weights.row",
             "row has " + std::to_string(row.size()) + " entries, expected " +
                 std::to_string(width));
    }
    weights_.push_back(std::move(row));
  }
  class_counts_ = r.F64Array("perceptron.class_counts");
  if (class_counts_.size() != static_cast<size_t>(schema_.num_classes)) {
    r.Fail("perceptron.class_counts", "size does not match schema");
  }
  total_count_ = r.F64("perceptron.total_count");
  r.EndSection("SoftmaxPerceptron");
}

}  // namespace ccd
