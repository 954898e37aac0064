#include "detectors/detector.h"

#include <stdexcept>

namespace ccd {

std::unique_ptr<DriftDetector> DriftDetector::CloneState() const {
  throw std::logic_error("detector '" + name() +
                         "' does not implement CloneState()");
}

void DriftDetector::SaveState(io::Writer& /*writer*/) const {
  throw std::logic_error("detector '" + name() +
                         "' does not implement SaveState(); it cannot be "
                         "persisted or shipped across processes");
}

void DriftDetector::LoadState(io::Reader& /*reader*/) {
  throw std::logic_error("detector '" + name() +
                         "' does not implement LoadState(); it cannot be "
                         "restored from a snapshot");
}

const char* DetectorStateName(DetectorState s) {
  switch (s) {
    case DetectorState::kStable:
      return "stable";
    case DetectorState::kWarning:
      return "warning";
    case DetectorState::kDrift:
      return "drift";
  }
  return "?";
}

}  // namespace ccd
