#include "detectors/perfsim.h"

#include <cmath>

#include "io/codecs.h"

namespace ccd {

void PerfSim::Reset() {
  state_ = DetectorState::kStable;
  size_t cells = static_cast<size_t>(params_.num_classes) *
                 static_cast<size_t>(params_.num_classes);
  reference_.assign(cells, 0.0);
  current_.assign(cells, 0.0);
  in_chunk_ = 0;
  chunk_errors_ = 0;
  has_reference_ = false;
  drifted_.clear();
}

double PerfSim::CosineSimilarity(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 1.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void PerfSim::Observe(const Instance& instance, int predicted,
                      const std::vector<double>& /*scores*/) {
  if (state_ == DetectorState::kDrift) {
    state_ = DetectorState::kStable;
    drifted_.clear();
  }
  int y = instance.label;
  if (y < 0 || y >= params_.num_classes || predicted < 0 ||
      predicted >= params_.num_classes) {
    return;
  }
  current_[static_cast<size_t>(y) * params_.num_classes +
           static_cast<size_t>(predicted)] += 1.0;
  if (predicted != y) ++chunk_errors_;
  if (++in_chunk_ < params_.chunk_size) return;

  if (!has_reference_) {
    reference_ = current_;
    has_reference_ = true;
  } else if (chunk_errors_ >= params_.min_errors ||
             params_.min_errors == 0) {
    double sim = CosineSimilarity(reference_, current_);
    if (sim < 1.0 - params_.differentiation_weight) {
      state_ = DetectorState::kDrift;
      // Localize: classes whose row changed the most (relative L1 shift).
      drifted_.clear();
      for (int k = 0; k < params_.num_classes; ++k) {
        double shift = 0.0, mass = 0.0;
        for (int j = 0; j < params_.num_classes; ++j) {
          size_t idx = static_cast<size_t>(k) * params_.num_classes + j;
          shift += std::fabs(current_[idx] - reference_[idx]);
          mass += reference_[idx] + current_[idx];
        }
        if (mass > 0.0 && shift / mass > params_.differentiation_weight) {
          drifted_.push_back(k);
        }
      }
      reference_ = current_;
    } else {
      // Slowly blend the stable chunk into the reference so the detector
      // follows benign evolution without firing.
      for (size_t i = 0; i < reference_.size(); ++i) {
        reference_[i] = 0.8 * reference_[i] + 0.2 * current_[i];
      }
    }
  }
  current_.assign(current_.size(), 0.0);
  in_chunk_ = 0;
  chunk_errors_ = 0;
}

void PerfSim::SaveState(io::Writer& w) const {
  w.BeginSection("PerfSim");
  io::WriteDetectorState(w, state_);
  w.F64Array(reference_);
  w.F64Array(current_);
  w.I64(in_chunk_);
  w.I64(chunk_errors_);
  w.Bool(has_reference_);
  io::WriteIntVector(w, drifted_);
  w.EndSection();
}

void PerfSim::LoadState(io::Reader& r) {
  r.BeginSection("PerfSim");
  state_ = io::ReadDetectorState(r, "perfsim.state");
  reference_ = r.F64Array("perfsim.reference");
  current_ = r.F64Array("perfsim.current");
  size_t cells = static_cast<size_t>(params_.num_classes) *
                 static_cast<size_t>(params_.num_classes);
  if (reference_.size() != cells || current_.size() != cells) {
    r.Fail("perfsim.reference",
           "confusion matrix has " + std::to_string(reference_.size()) +
               " cells, expected " + std::to_string(cells));
  }
  in_chunk_ = static_cast<int>(r.I64("perfsim.in_chunk"));
  chunk_errors_ = static_cast<int>(r.I64("perfsim.chunk_errors"));
  has_reference_ = r.Bool("perfsim.has_reference");
  drifted_ = io::ReadIntVector(r, "perfsim.drifted");
  r.EndSection("PerfSim");
}

}  // namespace ccd
