#ifndef CCD_EVAL_ADMISSION_H_
#define CCD_EVAL_ADMISSION_H_

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/instance.h"

namespace ccd {

/// Why a pushed row was refused at admission.
enum class RejectReason {
  kWidth,    ///< The feature count differs from the schema's.
  kFeature,  ///< A feature is NaN or infinite.
  kWeight,   ///< The weight is not finite, or not > 0.
  kLabel,    ///< The label lies outside [0, num_classes).
};

/// A pushed row refused at admission; reason() says why. It is a
/// std::invalid_argument, so callers that already answer bad input
/// (io::MonitorService replies ERR) keep doing so.
class AdmissionError : public std::invalid_argument {
 public:
  AdmissionError(RejectReason reason, const std::string& message)
      : std::invalid_argument(message), reason_(reason) {}
  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

/// The admission check of a push, run before anything changes: the row
/// must have the schema's width, every feature must be finite, the weight
/// must be finite and > 0, and `label`, when given (Feed), must pass
/// CheckLabel. Predict rows carry no label yet. Throws AdmissionError for
/// the first violation. Without it, a NaN feature poisons RBM-IM's
/// normalizer bounds and reconstruction errors, and a wide row reaches
/// classifiers that read only the schema's width of it.
void CheckRow(const StreamSchema& schema, const std::vector<double>& features,
              double weight, std::optional<int> label);

/// The label part of CheckRow, for a Label() whose row was admitted at
/// Predict(): the label must lie in [0, num_classes).
void CheckLabel(const StreamSchema& schema, int label);

}  // namespace ccd

#endif  // CCD_EVAL_ADMISSION_H_
