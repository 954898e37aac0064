#include "classifiers/classifier.h"

#include <stdexcept>

namespace ccd {

std::unique_ptr<OnlineClassifier> OnlineClassifier::CloneState() const {
  throw std::logic_error("classifier '" + name() +
                         "' does not implement CloneState()");
}

void OnlineClassifier::SaveState(io::Writer& /*writer*/) const {
  throw std::logic_error("classifier '" + name() +
                         "' does not implement SaveState(); it cannot be "
                         "persisted or shipped across processes");
}

void OnlineClassifier::LoadState(io::Reader& /*reader*/) {
  throw std::logic_error("classifier '" + name() +
                         "' does not implement LoadState(); it cannot be "
                         "restored from a snapshot");
}

void OnlineClassifier::PredictScoresInto(const Instance& instance,
                                         std::vector<double>& out) const {
  out = PredictScores(instance);
}

int OnlineClassifier::Predict(const Instance& instance) const {
  std::vector<double> scores = PredictScores(instance);
  int best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = static_cast<int>(i);
  }
  return best;
}

}  // namespace ccd
