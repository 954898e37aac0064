#include "detectors/ddm_oci.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

void DdmOci::Reset() {
  state_ = DetectorState::kStable;
  size_t k = static_cast<size_t>(params_.num_classes);
  recall_.assign(k, 1.0);
  recall_max_.assign(k, 0.0);
  sigma_max_.assign(k, 0.0);
  count_.assign(k, 0);
  violations_.assign(k, 0);
  drifted_.clear();
}

void DdmOci::Observe(const Instance& instance, int predicted,
                     const std::vector<double>& /*scores*/) {
  if (state_ == DetectorState::kDrift) {
    // Re-arm only the tripped classes; the others keep their statistics
    // (the drift was local to the flagged classes).
    for (int k : drifted_) {
      recall_[static_cast<size_t>(k)] = 1.0;
      recall_max_[static_cast<size_t>(k)] = 0.0;
      sigma_max_[static_cast<size_t>(k)] = 0.0;
      count_[static_cast<size_t>(k)] = 0;
      violations_[static_cast<size_t>(k)] = 0;
    }
    drifted_.clear();
    state_ = DetectorState::kStable;
  }

  int y = instance.label;
  if (y < 0 || y >= params_.num_classes) return;
  size_t yk = static_cast<size_t>(y);
  double correct = predicted == y ? 1.0 : 0.0;
  recall_[yk] = params_.decay * recall_[yk] + (1.0 - params_.decay) * correct;
  ++count_[yk];
  if (count_[yk] < params_.min_class_count) return;

  double n = static_cast<double>(count_[yk]);
  double sigma = std::sqrt(recall_[yk] * (1.0 - recall_[yk]) / n);
  recall_max_[yk] *= params_.max_decay;
  if (recall_[yk] >= recall_max_[yk]) {
    recall_max_[yk] = recall_[yk];
    sigma_max_[yk] = sigma;
  }
  double baseline = recall_max_[yk] - sigma_max_[yk];
  if (baseline <= 0.0) return;

  if (recall_[yk] + sigma < params_.drift_threshold * baseline) {
    if (++violations_[yk] >= params_.consecutive_violations) {
      state_ = DetectorState::kDrift;
      drifted_.push_back(y);
      violations_[yk] = 0;
    }
  } else {
    violations_[yk] = 0;
    if (recall_[yk] + sigma < params_.warning_threshold * baseline &&
        state_ == DetectorState::kStable) {
      state_ = DetectorState::kWarning;
    }
  }
}

void DdmOci::SaveState(io::Writer& w) const {
  w.BeginSection("DDM-OCI");
  io::WriteDetectorState(w, state_);
  w.F64Array(recall_);
  w.F64Array(recall_max_);
  w.F64Array(sigma_max_);
  io::WriteI64Vector(w, count_);
  io::WriteIntVector(w, violations_);
  io::WriteIntVector(w, drifted_);
  w.EndSection();
}

void DdmOci::LoadState(io::Reader& r) {
  r.BeginSection("DDM-OCI");
  state_ = io::ReadDetectorState(r, "ddm_oci.state");
  recall_ = r.F64Array("ddm_oci.recall");
  recall_max_ = r.F64Array("ddm_oci.recall_max");
  sigma_max_ = r.F64Array("ddm_oci.sigma_max");
  count_ = io::ReadI64Vector(r, "ddm_oci.count");
  violations_ = io::ReadIntVector(r, "ddm_oci.violations");
  drifted_ = io::ReadIntVector(r, "ddm_oci.drifted");
  size_t k = static_cast<size_t>(params_.num_classes);
  if (recall_.size() != k || recall_max_.size() != k ||
      sigma_max_.size() != k || count_.size() != k ||
      violations_.size() != k) {
    r.Fail("ddm_oci.recall",
           "per-class vectors do not match num_classes " + std::to_string(k));
  }
  r.EndSection("DDM-OCI");
}

}  // namespace ccd
