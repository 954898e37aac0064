#ifndef CCD_DETECTORS_PERFSIM_H_
#define CCD_DETECTORS_PERFSIM_H_

#include <vector>

#include "detectors/detector.h"

namespace ccd {

/// PerfSim (Antwi, Viktor & Japkowicz, ICDM-W 2012): drift detection for
/// imbalanced streams by monitoring the *entire confusion matrix*.
///
/// Accumulates a confusion matrix over consecutive chunks and compares each
/// new chunk's matrix to the reference (last stable) matrix with a cosine
/// similarity over all K² cells. A similarity drop below
/// 1 - differentiation_weight signals drift, after which the current chunk
/// becomes the new reference. Because every cell participates, minority
/// misclassification shifts register even when accuracy barely moves.
class PerfSim : public DriftDetector {
 public:
  struct Params {
    int num_classes = 2;
    int chunk_size = 500;
    double differentiation_weight = 0.2;  ///< λ in the paper's grid.
    int min_errors = 30;  ///< Chunk must carry at least this much signal.
  };

  explicit PerfSim(const Params& params) : params_(params) { Reset(); }

  void Observe(const Instance& instance, int predicted,
               const std::vector<double>& scores) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "PerfSim"; }
  std::vector<int> drifted_classes() const override { return drifted_; }
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

 private:
  static double CosineSimilarity(const std::vector<double>& a,
                                 const std::vector<double>& b);

  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  DetectorState state_ = DetectorState::kStable;
  std::vector<double> reference_;  ///< K*K reference confusion cells.
  std::vector<double> current_;
  int in_chunk_ = 0;
  int chunk_errors_ = 0;
  bool has_reference_ = false;
  std::vector<int> drifted_;
};

}  // namespace ccd

#endif  // CCD_DETECTORS_PERFSIM_H_
