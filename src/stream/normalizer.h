#ifndef CCD_STREAM_NORMALIZER_H_
#define CCD_STREAM_NORMALIZER_H_

#include <stdexcept>
#include <string>
#include <vector>

#include "stream/instance.h"

namespace ccd {

/// Online per-feature min-max normalizer mapping raw features into [0, 1].
///
/// The RBM visible layer models binary/unit-interval units, so features must
/// be squashed before reconstruction error is meaningful. Bounds are learned
/// incrementally from the stream (expanding only), which is the standard
/// streaming practice when the domain is unknown a priori.
class MinMaxNormalizer {
 public:
  explicit MinMaxNormalizer(int num_features)
      : lo_(num_features, 0.0), hi_(num_features, 0.0), seen_(false) {}

  /// Updates the bounds from a raw instance. Throws std::invalid_argument
  /// when `x` does not have the declared number of features — indexing
  /// lo_/hi_ by a wider vector would read and write out of bounds.
  void Observe(const std::vector<double>& x) {
    CheckWidth(x);
    if (!seen_) {
      lo_ = x;
      hi_ = x;
      seen_ = true;
      return;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i] < lo_[i]) lo_[i] = x[i];
      if (x[i] > hi_[i]) hi_[i] = x[i];
    }
  }

  /// Maps `x` into [0,1]^d with the current bounds, writing into `out`
  /// (capacity reused; `out` must not alias `x`). Constant features map to
  /// 0.5. Does not update the bounds. Throws std::invalid_argument on a
  /// width mismatch, like Observe().
  void TransformInto(const std::vector<double>& x,
                     std::vector<double>* out) const {
    CheckWidth(x);
    out->resize(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      double span = hi_[i] - lo_[i];
      if (span <= 0.0 || !seen_) {
        (*out)[i] = 0.5;
      } else {
        double v = (x[i] - lo_[i]) / span;
        (*out)[i] = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
      }
    }
  }

  /// Observe() then TransformInto() (the usual streaming order): the
  /// per-push path of RBM-IM's pending mini-batch, which recycles its
  /// instance slots.
  void ObserveTransformInto(const std::vector<double>& x,
                            std::vector<double>* out) {
    Observe(x);
    TransformInto(x, out);
  }

  bool seen() const { return seen_; }

  /// Serialization access: the learned bounds are stream state and must
  /// survive a persist/restore round trip verbatim.
  const std::vector<double>& lower() const { return lo_; }
  const std::vector<double>& upper() const { return hi_; }

  /// Replaces the learned bounds. Throws std::invalid_argument when the
  /// two bound vectors disagree in width or do not match the width this
  /// normalizer was constructed for.
  void RestoreState(std::vector<double> lo, std::vector<double> hi,
                    bool seen) {
    if (lo.size() != hi.size() || lo.size() != lo_.size()) {
      throw std::invalid_argument(
          "MinMaxNormalizer::RestoreState: bound width mismatch");
    }
    lo_ = std::move(lo);
    hi_ = std::move(hi);
    seen_ = seen;
  }

 private:
  void CheckWidth(const std::vector<double>& x) const {
    if (x.size() != lo_.size()) {
      throw std::invalid_argument(
          "MinMaxNormalizer: instance has " + std::to_string(x.size()) +
          " features, normalizer was sized for " + std::to_string(lo_.size()));
    }
  }

  std::vector<double> lo_;
  std::vector<double> hi_;
  bool seen_;
};

}  // namespace ccd

#endif  // CCD_STREAM_NORMALIZER_H_
