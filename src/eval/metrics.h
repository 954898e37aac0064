#ifndef CCD_EVAL_METRICS_H_
#define CCD_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "eval/confusion.h"

namespace ccd {

/// Sliding-window prequential metrics for multi-class imbalanced streams:
/// pmAUC (prequential multi-class AUC, the windowed one-vs-one average AUC
/// of Wang & Minku) and pmGM (windowed geometric mean of class recalls),
/// plus accuracy and Cohen's kappa. The paper evaluates with window
/// W = 1000.
///
/// The window is a preallocated ring of outcomes whose scores live in one
/// flat W x K array (K = num_classes), so a steady-state Add performs no
/// heap allocation and an evaluation tick reads contiguous memory. Memory
/// is bounded by the window: W slots of K scores, plus the tick's scratch
/// (another W x K packing and two W-long ratio columns).
class WindowedMetrics {
 public:
  WindowedMetrics(int num_classes, int window = 1000);

  /// Records one prequential outcome (scores are the classifier's
  /// normalized per-class supports for the instance). Allocation-free once
  /// the window has filled, unless `scores` is wider than num_classes.
  void Add(int truth, int predicted, const std::vector<double>& scores);

  /// pmAUC over the current window: mean over ordered class pairs (i < j),
  /// restricted to pairs with at least one instance of each class, of the
  /// pairwise AUC computed from normalized score ratios (a score a vector
  /// does not carry counts as 0).
  ///
  /// Cost: an O(W K) pass packs each class's scores column-major; a pair
  /// with m instances on its smaller side and M on its larger then costs
  /// O((m + M) log m). Call at a sampling interval, not per instance. The
  /// result is the midrank AUC bit for bit: U = #(pos > neg) +
  /// 1/2 #(pos = neg) is a half-integer below 2^53, so U / (n_pos n_neg)
  /// is the same double as (rank_sum_pos - n_pos (n_pos + 1) / 2) /
  /// (n_pos n_neg).
  double PmAuc() const;

  /// pmGM over the current window (Laplace-smoothed recalls; see
  /// ConfusionMatrix::GMeanSmoothed for why).
  double PmGMean() const { return confusion_.GMeanSmoothed(); }
  double Accuracy() const { return confusion_.Accuracy(); }
  double Kappa() const { return confusion_.Kappa(); }

  size_t size() const { return slots_.size(); }
  const ConfusionMatrix& confusion() const { return confusion_; }

  /// One windowed outcome, as CopyWindow returns it. Public so the
  /// monitoring engine can snapshot the window contents for shard handoff
  /// (prefix-state transfer).
  struct Entry {
    int truth;
    int predicted;
    std::vector<double> scores;

    friend bool operator==(const Entry& a, const Entry& b) {
      return a.truth == b.truth && a.predicted == b.predicted &&
             a.scores == b.scores;
    }
    friend bool operator!=(const Entry& a, const Entry& b) { return !(a == b); }
  };

  /// Appends the window contents, oldest first, to `out`: each entry's
  /// scores are exactly the vector Add received. Together with the schema
  /// this is the complete metric state of a run at a point in time.
  void CopyWindow(std::vector<Entry>* out) const;

 private:
  struct Slot {
    int truth;
    int predicted;
    size_t width;                  ///< scores.size() as Add received it.
    std::vector<double> overflow;  ///< Columns >= K; empty when well formed.
  };

  size_t classes_;  ///< K; 0 for a degenerate class count.
  int window_;
  /// Ring: slots_[(head_ + k) % window_] is the k-th oldest. Grows only
  /// while filling (head_ == 0), then slots are overwritten in place.
  std::vector<Slot> slots_;
  /// Slot s's first K scores at [s * K, s * K + K); columns past the
  /// slot's width hold 0.
  std::vector<double> scores_;
  size_t head_ = 0;
  ConfusionMatrix confusion_;
  /// PmAuc scratch (reused across pairs and calls; no metric state).
  mutable std::vector<size_t> class_begin_;
  mutable std::vector<size_t> class_fill_;
  mutable std::vector<double> packed_;
  mutable std::vector<double> pos_scratch_;
  mutable std::vector<double> neg_scratch_;
};

/// AUC of binary scores-vs-labels via the rank-sum estimator (midranks for
/// ties). `positive_scores` are scores of true positives; `negative_scores`
/// of true negatives. Returns 0.5 when either side is empty. Same kernel
/// and same bits as PmAuc's per-pair AUC.
double BinaryAuc(const std::vector<double>& positive_scores,
                 const std::vector<double>& negative_scores);

}  // namespace ccd

#endif  // CCD_EVAL_METRICS_H_
