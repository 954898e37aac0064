#include "eval/admission.h"

#include <cmath>

namespace ccd {

void CheckRow(const StreamSchema& schema, const std::vector<double>& features,
              double weight, std::optional<int> label) {
  if (features.size() != static_cast<size_t>(schema.num_features)) {
    throw AdmissionError(
        RejectReason::kWidth,
        "row has " + std::to_string(features.size()) +
            " features, schema has " + std::to_string(schema.num_features));
  }
  for (size_t i = 0; i < features.size(); ++i) {
    if (!std::isfinite(features[i])) {
      throw AdmissionError(RejectReason::kFeature,
                           "feature " + std::to_string(i) + " is " +
                               std::to_string(features[i]) +
                               ", features must be finite");
    }
  }
  if (!std::isfinite(weight) || !(weight > 0.0)) {
    throw AdmissionError(RejectReason::kWeight,
                         "weight " + std::to_string(weight) +
                             " must be finite and > 0");
  }
  if (label.has_value()) CheckLabel(schema, *label);
}

void CheckLabel(const StreamSchema& schema, int label) {
  if (label < 0 || label >= schema.num_classes) {
    throw AdmissionError(RejectReason::kLabel,
                         "label " + std::to_string(label) +
                             " outside [0, " +
                             std::to_string(schema.num_classes) + ")");
  }
}

}  // namespace ccd
