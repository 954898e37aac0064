#ifndef CCD_CORE_RBM_IM_H_
#define CCD_CORE_RBM_IM_H_

#include <deque>
#include <memory>
#include <vector>

#include "core/rbm.h"
#include "detectors/adwin.h"
#include "detectors/detector.h"
#include "stats/trend.h"
#include "stats/welford.h"
#include "stream/normalizer.h"

namespace ccd {

/// RBM-IM — the paper's trainable drift detector for multi-class imbalanced
/// data streams (Sec. V).
///
/// Pipeline per arriving mini-batch M_t (size `batch_size`):
///   1. *monitor*: for every class m present in the batch, compute the mean
///      normalized reconstruction error R(M_t^m) against the current RBM
///      (Eq. 26-27) — new data that no longer matches the stored concept
///      reconstructs poorly. The errors are computed while the batch
///      fills: once the training of step 3 has settled, the RBM's weights
///      are fixed until the close, and an error is a pure function of the
///      weights and the row. So every few observations (6 of a 50-instance
///      batch) one computes the errors of the rows that arrived since, and
///      the last few also compute the older pooled rows that rare classes
///      borrow. The close sums the cached errors in the order it would
///      have computed them, this batch's rows then the pool's, newest
///      first, and computes only what is still missing;
///   2. *decide*: per class, two complementary change tests:
///        - a *jump* test: R(M_t^m) is compared against an exponentially
///          weighted baseline of that class's own history; a z-score above
///          `jump_sigmas` marks an abrupt mismatch (sudden drift);
///        - a *trend* test: the linear-regression slope of R over a
///          self-adaptive window (Eq. 28-37, window size from a per-class
///          ADWIN) feeds a first-difference Granger causality test between
///          the previous and current trend windows — causality between
///          consecutive windows means the concept continues; its absence,
///          with an outlying positive slope, signals slow (gradual /
///          incremental) drift (Sec. V-B);
///   3. *adapt*: CD-k train the RBM on the batch with the class-balanced
///      loss (one pass, or 1 + `post_drift_boost` passes after a drift),
///      so the stored concept follows the stream, its imbalance ratio,
///      and evolving class roles. Steps 1-2 run on the observation that
///      closes the batch, because the verdict is that observation's; the
///      training does not. The close swaps the batch into a second buffer
///      and records the passes it owes, and each following observation
///      that does not close a batch trains one fixed slice of them
///      (about a tenth of a batch) before any error of step 1 is cached.
///      Whatever is left is settled before anything reads the RBM: the
///      next close's monitor pass, SaveState() and rbm(). Reset() drops
///      it with the RBM. The slices replay the same instances in the same
///      order with the same RNG draws, so every decision and every
///      capture sees exactly the weights of training the whole batch at
///      its close.
///
/// `trigger` selects the decision rule for the ablation study: kCombined
/// (default) ORs the jump and trend tests; kZScore uses only the jump test;
/// kAdwinOnly replaces both with a plain per-class ADWIN on R (no Granger);
/// kGranger uses only the trend/Granger path.
class RbmIm : public DriftDetector {
 public:
  enum class Trigger { kCombined, kZScore, kAdwinOnly, kGranger };

  struct Params {
    int num_features = 0;
    int num_classes = 0;
    // Table II grid knobs.
    int batch_size = 50;        ///< M ∈ {25, 50, 75, 100}.
    double hidden_ratio = 0.5;  ///< H = ratio * V, ∈ {0.25, 0.5, 0.75, 1}.
    double learning_rate = 0.05;  ///< η ∈ {0.01, 0.03, 0.05, 0.07}.
    int cd_steps = 1;           ///< Gibbs k ∈ {1, 2, 3, 4}.
    // Skew-insensitive loss.
    bool class_balanced = true;
    double beta = 0.999;
    // Drift decision.
    Trigger trigger = Trigger::kCombined;
    double jump_sigmas = 4.0;      ///< z threshold of the jump test.
    /// CUSUM companion of the jump test: the one-sided statistic
    /// max(0, C + z - cusum_slack) crossing cusum_threshold signals drift.
    /// Catches the persistent moderate elevation typical of rare classes,
    /// whose single-batch z stays below jump_sigmas because their R
    /// estimate is noisy.
    double cusum_slack = 0.75;
    double cusum_threshold = 7.0;
    double baseline_decay = 0.98;  ///< EWMA decay of the per-class baseline.
    double sigma_floor = 0.01;     ///< Lower bound on the baseline sigma.
    int granger_window = 8;        ///< L: half-window of trend values tested.
    int granger_lag = 1;
    double granger_alpha = 0.05;
    double slope_sigmas = 3.0;  ///< Trend-magnitude gate (z-score).
    double adwin_delta = 0.002;
    int min_batches = 16;       ///< Per-class batches before testing.
    int warmup_batches = 5;     ///< Paper: first batch(es) only train.
    int trend_window_min = 4;
    int trend_window_max = 64;
    /// Extra CD passes over the batch right after a detected drift, so the
    /// RBM re-centers on the new concept faster.
    int post_drift_boost = 2;
    /// Per-class evaluation pool: R(M_t^m) is averaged over up to this many
    /// recent instances of class m (Eq. 27 with a cross-batch pool), which
    /// stabilizes the estimate for rare classes.
    int eval_pool = 16;
  };

  /// Throws ParamError unless `params` is valid (see ValidateParams).
  RbmIm(const Params& params, uint64_t seed);

  /// Throws ParamError naming the first out-of-domain field: num_features,
  /// num_classes, batch_size, eval_pool and cd_steps must be >= 1,
  /// hidden_ratio and learning_rate finite and > 0, beta in (0,1).
  static void ValidateParams(const Params& params);

  void Observe(const Instance& instance, int predicted,
               const std::vector<double>& scores) override;
  DetectorState state() const override { return state_; }
  void Reset() override;
  std::string name() const override { return "RBM-IM"; }
  std::vector<int> drifted_classes() const override { return drifted_; }
  /// Writes the learned detector state — the seed Reset() re-seeds the
  /// RBM from, the RBM (weights + RNG cursor), normalizer bounds, pending
  /// mini-batch, and every per-class monitor (ADWIN buckets, trend sums,
  /// baselines, CUSUM) — to the wire format, so a LoadState()ed copy's
  /// future batch decisions are bit-identical. LoadState() checks every
  /// payload shape against this instance's params.
  void SaveState(io::Writer& writer) const override;
  void LoadState(io::Reader& reader) override;

  /// Introspection for tests and diagnostics. Settles owed training
  /// first, so the RBM read is the one every decision sees.
  const Rbm& rbm() const {
    Settle();
    return *rbm_;
  }
  double last_reconstruction(int k) const;
  double trend_slope(int k) const;
  /// Jump-test z-score of class k's latest batch (0 until baseline ready).
  double last_z(int k) const;
  uint64_t batches_processed() const { return batches_; }

 private:
  /// Exponentially weighted mean/variance, the per-class R baseline. Unlike
  /// a plain Welford it follows the slow decline of R while the RBM keeps
  /// converging, so jumps remain visible at any stream age.
  struct EwmaBaseline {
    double mean = 0.0;
    double var = 0.0;
    long long n = 0;

    void Add(double x, double decay) {
      if (n == 0) {
        mean = x;
        var = 0.0;
        n = 1;
        return;
      }
      double d = x - mean;
      mean += (1.0 - decay) * d;
      var = decay * (var + (1.0 - decay) * d * d);
      ++n;
    }
    double StdDev() const;
  };

  struct ClassMonitor {
    /// Recent instances of this class (normalized), pooled across batches
    /// so minority classes get a smoothed R estimate instead of a 1-2
    /// sample one. Re-evaluated against the *current* RBM every time the
    /// class appears.
    std::deque<std::vector<double>> recent;
    std::unique_ptr<Adwin> adwin;
    std::unique_ptr<SlidingTrend> trend;
    std::deque<double> trend_history;  ///< Recent Q_r values.
    Welford slope_stats;               ///< Long-run slope distribution.
    EwmaBaseline baseline;
    double cusum = 0.0;
    double last_r = 0.0;
    double last_z = 0.0;
    int batches_seen = 0;
  };

  void ProcessBatch();
  bool NextCloseIsWarm() const;
  /// How many older pooled rows, newest first, a close averages for
  /// class k after the newest min(count, eval_pool) of the batch's
  /// `count` >= 1 rows of it.
  int Borrowed(int k, int count) const;
  /// Caches the error of every pending row that has none yet.
  void CacheRowErrors();
  /// Caches the errors of class k's `n` newest pooled rows.
  void CacheBorrowedErrors(int k, int n);
  /// One evaluating observation's share of step 1; `evaluations_left`
  /// counts it and the ones still to come before the close.
  void PayEvaluation(size_t evaluations_left);
  void ClearCache();
  /// Trains up to `budget` instances of the owed passes, in order.
  void PayTraining(size_t budget) const;
  /// Trains everything still owed.
  void Settle() const;
  bool DecideDrift(ClassMonitor* m);
  bool JumpTest(ClassMonitor* m) const;
  bool TrendTest(ClassMonitor* m) const;
  void ResetMonitor(ClassMonitor* m);

  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  uint64_t seed_;
  std::unique_ptr<Rbm> rbm_;
  MinMaxNormalizer normalizer_;
  /// Current mini-batch buffer. Only the first `pending_used_` entries are
  /// live: slots (and their feature vectors) are recycled across batches so
  /// the per-push path never allocates once the buffer has grown.
  std::vector<Instance> pending_;
  size_t pending_used_ = 0;
  /// CD-k training the last close still owes: that batch (swapped out of
  /// `pending_`, so both buffers keep their slots), the passes left over
  /// it and the next instance of the current pass. Mutable because the
  /// const readers of the RBM, SaveState() and rbm(), settle it first.
  struct OwedTraining {
    std::vector<Instance> batch;
    size_t used = 0;
    int passes = 0;
    size_t next = 0;
  };
  // ccd:state-skip(owed_, in-flight training of the last closed batch; settled before SaveState writes; empty at every capture)
  mutable OwedTraining owed_;
  /// Step 1's errors cached while the batch fills, against the weights
  /// the close reads: filled only while owed_.passes == 0, emptied by the
  /// close, Reset() and LoadState(). Sized at construction. Empty only
  /// means the close computes the errors itself.
  struct ErrorCache {
    std::vector<double> rows;  ///< Error of pending_[i], i < rows_done.
    size_t rows_done = 0;
    std::vector<int> count;  ///< Per class: its rows among the first rows_done.
    /// Per class, kMinEval slots: errors of its pooled rows, newest first.
    std::vector<double> borrowed;
    std::vector<int> borrowed_done;  ///< Per class: borrowed errors cached.
  };
  // ccd:state-skip(cache_, errors derived from the RBM and rows already on the wire; a restored detector recomputes them)
  ErrorCache cache_;
  std::vector<ClassMonitor> monitors_;  ///< One per class.
  // Per-batch scratch, reused across ProcessBatch calls so the batch
  // boundary only allocates inside the decision statistics (ADWIN
  // buckets, Granger regressions), never for bookkeeping.
  // ccd:state-skip(r_sum_scratch_, transient ProcessBatch scratch fully rewritten per batch; no run state)
  std::vector<double> r_sum_scratch_;
  // ccd:state-skip(r_count_scratch_, transient ProcessBatch scratch fully rewritten per batch; no run state)
  std::vector<int> r_count_scratch_;
  // TrendTest's two Granger windows, copied out of trend_history.
  // ccd:state-skip(granger_prev_scratch_, transient TrendTest scratch fully rewritten per call; no run state)
  mutable std::vector<double> granger_prev_scratch_;
  // ccd:state-skip(granger_cur_scratch_, transient TrendTest scratch fully rewritten per call; no run state)
  mutable std::vector<double> granger_cur_scratch_;
  DetectorState state_ = DetectorState::kStable;
  std::vector<int> drifted_;
  uint64_t batches_ = 0;
};

}  // namespace ccd

#endif  // CCD_CORE_RBM_IM_H_
