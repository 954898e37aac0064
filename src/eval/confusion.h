#ifndef CCD_EVAL_CONFUSION_H_
#define CCD_EVAL_CONFUSION_H_

#include <cstddef>
#include <vector>

namespace ccd {

/// Dense K x K confusion matrix with the derived multi-class metrics the
/// evaluation protocol needs (recall vector, G-mean, accuracy, Cohen's
/// kappa).
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes)
      : k_(num_classes),
        cells_(static_cast<size_t>(num_classes) *
                   static_cast<size_t>(num_classes),
               0.0) {}

  void Add(int truth, int predicted, double weight = 1.0) {
    if (truth < 0 || truth >= k_ || predicted < 0 || predicted >= k_) return;
    cells_[static_cast<size_t>(truth) * k_ + static_cast<size_t>(predicted)] +=
        weight;
    total_ += weight;
  }

  void Remove(int truth, int predicted, double weight = 1.0) {
    Add(truth, predicted, -weight);
  }

  double cell(int truth, int predicted) const {
    return cells_[static_cast<size_t>(truth) * k_ +
                  static_cast<size_t>(predicted)];
  }
  double total() const { return total_; }
  int num_classes() const { return k_; }

  /// Instances with true class k.
  double RowTotal(int k) const;
  /// Instances predicted as class k.
  double ColTotal(int k) const;

  double Accuracy() const;
  /// Recall of class k; `fallback` is returned for unseen classes.
  double Recall(int k, double fallback = 0.0) const;
  /// Geometric mean of recalls over classes present in the window
  /// (pmGM when computed over a sliding window).
  double GMean() const;
  /// G-mean over Laplace-smoothed recalls (TP+alpha)/(n+2*alpha). With many
  /// classes and a finite window, some class almost always has one missed
  /// instance, which pins the raw G-mean at exactly 0; the smoothed variant
  /// keeps the metric informative (used by the prequential pmGM).
  double GMeanSmoothed(double alpha = 1.0) const;
  /// Cohen's kappa (chance-corrected accuracy).
  double Kappa() const;

 private:
  int k_;
  std::vector<double> cells_;
  double total_ = 0.0;
};

}  // namespace ccd

#endif  // CCD_EVAL_CONFUSION_H_
