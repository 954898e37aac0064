#include "core/rbm_im.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "io/codecs.h"
#include "stats/granger.h"

namespace ccd {

double RbmIm::EwmaBaseline::StdDev() const { return std::sqrt(var); }

namespace {

const RbmIm::Params& Validated(const RbmIm::Params& params) {
  RbmIm::ValidateParams(params);
  return params;
}

/// A close's training is spread over this many slices of the observations
/// that follow it, so the slices land on a fifth of a 50-instance batch.
constexpr size_t kTrainingSlices = 10;

/// Once training has settled, every ceil(batch_size / kEvaluationSlices)-th
/// observation, counted back from the last one before the close, computes
/// the monitor-pass errors of the rows that arrived since: the 7th, 14th,
/// ..., 49th of a 50-instance batch, of which the 7th usually still
/// trains. With the training slices and the close that is about a third
/// of the observations; spreading the work thinner makes plain buffering
/// slower.
constexpr size_t kEvaluationSlices = 8;

/// The borrowed older-pool errors are paid by this many last evaluating
/// observations: late enough that few classes still gain the rows that
/// would make them unnecessary, spread enough that none pays them all.
constexpr size_t kBorrowSlices = 3;

/// A class's verdict averages at least this many rows (Eq. 27 over the
/// cross-batch pool), borrowing older pooled ones when the batch has fewer.
constexpr int kMinEval = 8;

}  // namespace

RbmIm::RbmIm(const Params& params, uint64_t seed)
    : params_(Validated(params)),
      seed_(seed),
      normalizer_(params.num_features) {
  Reset();
}

void RbmIm::ValidateParams(const Params& p) {
  ParamError::Require(p.num_features >= 1, "rbm_im.num_features", "be >= 1",
                      p.num_features);
  ParamError::Require(p.num_classes >= 1, "rbm_im.num_classes", "be >= 1",
                      p.num_classes);
  ParamError::Require(p.batch_size >= 1, "rbm_im.batch_size", "be >= 1",
                      p.batch_size);
  ParamError::Require(p.eval_pool >= 1, "rbm_im.eval_pool", "be >= 1",
                      p.eval_pool);
  ParamError::Require(p.cd_steps >= 1, "rbm_im.cd_steps",
                      "be >= 1 (CD-k needs a Gibbs step)", p.cd_steps);
  ParamError::Require(std::isfinite(p.hidden_ratio) && p.hidden_ratio > 0.0,
                      "rbm_im.hidden_ratio", "be finite and > 0",
                      p.hidden_ratio);
  ParamError::Require(std::isfinite(p.learning_rate) && p.learning_rate > 0.0,
                      "rbm_im.learning_rate", "be finite and > 0",
                      p.learning_rate);
  ParamError::Require(p.beta > 0.0 && p.beta < 1.0, "rbm_im.beta",
                      "lie in (0,1)", p.beta);
}

void RbmIm::Reset() {
  Rbm::Params rp;
  rp.visible = params_.num_features;
  rp.hidden = std::max(4, static_cast<int>(params_.hidden_ratio *
                                           params_.num_features));
  rp.classes = params_.num_classes;
  rp.learning_rate = params_.learning_rate;
  rp.cd_steps = params_.cd_steps;
  rp.class_balanced = params_.class_balanced;
  rp.beta = params_.beta;
  rbm_ = std::make_unique<Rbm>(rp, seed_);
  normalizer_ = MinMaxNormalizer(params_.num_features);
  pending_.clear();
  pending_used_ = 0;
  // The owed training belonged to the RBM just replaced.
  owed_.passes = 0;
  owed_.next = 0;
  const size_t classes = static_cast<size_t>(params_.num_classes);
  cache_.rows.assign(static_cast<size_t>(params_.batch_size), 0.0);
  cache_.count.assign(classes, 0);
  cache_.borrowed.assign(classes * kMinEval, 0.0);
  cache_.borrowed_done.assign(classes, 0);
  cache_.rows_done = 0;
  monitors_.clear();
  monitors_.resize(static_cast<size_t>(params_.num_classes));
  for (auto& m : monitors_) {
    Adwin::Params ap;
    ap.delta = params_.adwin_delta;
    ap.min_window = params_.min_batches;
    ap.check_interval = 1;
    m.adwin = std::make_unique<Adwin>(ap);
    m.trend = std::make_unique<SlidingTrend>(
        static_cast<size_t>(params_.trend_window_max));
  }
  state_ = DetectorState::kStable;
  drifted_.clear();
  batches_ = 0;
}

void RbmIm::SaveState(io::Writer& w) const {
  Settle();
  w.BeginSection("RBM-IM");
  w.U64(seed_);
  rbm_->SaveState(w);
  io::WriteNormalizer(w, normalizer_);
  // Only the used prefix is live state; slots beyond it are recycled
  // capacity. Wire-identical to serializing a trimmed vector.
  w.U32(static_cast<uint32_t>(pending_used_));
  for (size_t i = 0; i < pending_used_; ++i) io::WriteInstance(w, pending_[i]);
  w.U32(static_cast<uint32_t>(monitors_.size()));
  for (const ClassMonitor& m : monitors_) {
    w.U32(static_cast<uint32_t>(m.recent.size()));
    for (const std::vector<double>& x : m.recent) w.F64Array(x);
    m.adwin->SaveState(w);
    io::WriteTrend(w, *m.trend);
    io::WriteF64Deque(w, m.trend_history);
    io::WriteWelford(w, m.slope_stats);
    w.F64(m.baseline.mean);
    w.F64(m.baseline.var);
    w.I64(m.baseline.n);
    w.F64(m.cusum);
    w.F64(m.last_r);
    w.F64(m.last_z);
    w.I64(m.batches_seen);
  }
  io::WriteDetectorState(w, state_);
  io::WriteIntVector(w, drifted_);
  w.U64(batches_);
  w.EndSection();
}

void RbmIm::LoadState(io::Reader& r) {
  r.BeginSection("RBM-IM");
  seed_ = r.U64("rbm_im.seed");
  // Rebuild the component skeleton (fresh RBM, normalizer, per-class
  // monitors) from this instance's params, then overwrite every piece of
  // adaptive state from the wire.
  Reset();
  // Every row the RBM reads must be num_features wide.
  const auto check_width = [&](const std::vector<double>& x,
                               const char* field) {
    if (x.size() != static_cast<size_t>(params_.num_features)) {
      r.Fail(field, "row of " + std::to_string(x.size()) +
                        " features, num_features is " +
                        std::to_string(params_.num_features));
    }
  };
  rbm_->LoadState(r);
  io::ReadNormalizerInto(r, &normalizer_);
  uint32_t npending = r.Count("rbm_im.pending");
  // A batch closes the moment it holds batch_size instances.
  if (npending >= static_cast<uint32_t>(params_.batch_size)) {
    r.Fail("rbm_im.pending", std::to_string(npending) +
                                 " pending instances, batch_size is " +
                                 std::to_string(params_.batch_size));
  }
  pending_.clear();
  for (uint32_t i = 0; i < npending; ++i) {
    pending_.push_back(io::ReadInstance(r));
    check_width(pending_.back().features, "rbm_im.pending");
  }
  pending_used_ = pending_.size();
  uint32_t nmonitors = r.Count("rbm_im.monitors");
  if (nmonitors != monitors_.size()) {
    r.Fail("rbm_im.monitors",
           std::to_string(nmonitors) + " monitors serialized, schema has " +
               std::to_string(monitors_.size()) + " classes");
  }
  for (ClassMonitor& m : monitors_) {
    uint32_t nrecent = r.Count("rbm_im.monitor.recent");
    if (nrecent > static_cast<uint32_t>(params_.eval_pool)) {
      r.Fail("rbm_im.monitor.recent", std::to_string(nrecent) +
                                          " pooled instances, eval_pool is " +
                                          std::to_string(params_.eval_pool));
    }
    m.recent.clear();
    for (uint32_t i = 0; i < nrecent; ++i) {
      m.recent.push_back(r.F64Array("rbm_im.monitor.recent_instance"));
      check_width(m.recent.back(), "rbm_im.monitor.recent_instance");
    }
    m.adwin->LoadState(r);
    io::ReadTrendInto(r, m.trend.get());
    m.trend_history = io::ReadF64Deque(r, "rbm_im.monitor.trend_history");
    m.slope_stats = io::ReadWelford(r);
    m.baseline.mean = r.F64("rbm_im.monitor.baseline_mean");
    m.baseline.var = r.F64("rbm_im.monitor.baseline_var");
    m.baseline.n = r.I64("rbm_im.monitor.baseline_n");
    m.cusum = r.F64("rbm_im.monitor.cusum");
    m.last_r = r.F64("rbm_im.monitor.last_r");
    m.last_z = r.F64("rbm_im.monitor.last_z");
    m.batches_seen = static_cast<int>(r.I64("rbm_im.monitor.batches_seen"));
  }
  state_ = io::ReadDetectorState(r, "rbm_im.state");
  drifted_ = io::ReadIntVector(r, "rbm_im.drifted");
  batches_ = r.U64("rbm_im.batches");
  r.EndSection("RBM-IM");
}

void RbmIm::ResetMonitor(ClassMonitor* m) {
  // Keep `recent`: the pooled instances describe the *new* concept as soon
  // as fresh data arrives and stale entries rotate out quickly.
  m->adwin->Reset();
  m->trend->Reset();
  m->trend_history.clear();
  m->slope_stats.Reset();
  m->baseline = EwmaBaseline();
  m->cusum = 0.0;
  m->batches_seen = 0;
  m->last_z = 0.0;
}

double RbmIm::last_reconstruction(int k) const {
  return monitors_[static_cast<size_t>(k)].last_r;
}

double RbmIm::trend_slope(int k) const {
  return monitors_[static_cast<size_t>(k)].trend->Slope();
}

double RbmIm::last_z(int k) const {
  return monitors_[static_cast<size_t>(k)].last_z;
}

void RbmIm::Observe(const Instance& instance, int /*predicted*/,
                    const std::vector<double>& /*scores*/) {
  // A drift signal is sticky for exactly one observation.
  if (state_ == DetectorState::kDrift) {
    state_ = DetectorState::kStable;
    drifted_.clear();
  }
  // The normalizer is sized for params_.num_features and validates the
  // width: an instance that does not match the declared schema throws
  // std::invalid_argument here instead of corrupting the bounds arrays.
  // Slots are grown once and then recycled, so the steady-state push
  // performs no heap allocation. A throw leaves at most one spare slot.
  if (pending_used_ == pending_.size()) pending_.emplace_back();
  Instance& slot = pending_[pending_used_];
  normalizer_.ObserveTransformInto(instance.features, &slot.features);
  slot.label = instance.label;
  slot.weight = instance.weight;
  ++pending_used_;
  const size_t batch_size = static_cast<size_t>(params_.batch_size);
  if (pending_used_ >= batch_size) {
    ProcessBatch();
  } else if (owed_.passes > 0) {
    PayTraining((batch_size + kTrainingSlices - 1) / kTrainingSlices);
  } else if (!NextCloseIsWarm()) {
    // Training has settled, so the weights the close reads are fixed.
    const size_t stride =
        (batch_size + kEvaluationSlices - 1) / kEvaluationSlices;
    const size_t left = batch_size - 1 - pending_used_;
    if (left % stride == 0) PayEvaluation(left / stride + 1);
  }
}

bool RbmIm::NextCloseIsWarm() const {
  return batches_ + 1 <= static_cast<uint64_t>(params_.warmup_batches);
}

int RbmIm::Borrowed(int k, int count) const {
  const int pool =
      static_cast<int>(monitors_[static_cast<size_t>(k)].recent.size());
  // The pool after this batch's rows join it, evicting the oldest.
  const int pooled = std::min(params_.eval_pool, pool + count);
  const int n_eval = std::min(std::max(kMinEval, count), pooled);
  return n_eval - std::min(count, params_.eval_pool);
}

void RbmIm::CacheRowErrors() {
  for (; cache_.rows_done < pending_used_; ++cache_.rows_done) {
    const Instance& s = pending_[cache_.rows_done];
    if (s.label < 0 || s.label >= params_.num_classes) continue;
    cache_.rows[cache_.rows_done] =
        rbm_->ReconstructionError(s.features, s.label);
    ++cache_.count[static_cast<size_t>(s.label)];
  }
}

void RbmIm::CacheBorrowedErrors(int k, int n) {
  const size_t kk = static_cast<size_t>(k);
  const std::deque<std::vector<double>>& pool = monitors_[kk].recent;
  for (int& j = cache_.borrowed_done[kk]; j < n; ++j) {
    const size_t newest = static_cast<size_t>(j);
    cache_.borrowed[kk * kMinEval + newest] =
        rbm_->ReconstructionError(pool[pool.size() - 1 - newest], k);
  }
}

void RbmIm::PayEvaluation(size_t evaluations_left) {
  CacheRowErrors();
  if (evaluations_left > kBorrowSlices) return;
  // Borrowed rows of the classes seen so far, as many as their counts so
  // far need (a later row of the class can only lower that), shared out
  // evenly over the evaluations left.
  int missing = 0;
  for (int k = 0; k < params_.num_classes; ++k) {
    const int count = cache_.count[static_cast<size_t>(k)];
    if (count == 0) continue;
    missing += std::max(0, Borrowed(k, count) -
                               cache_.borrowed_done[static_cast<size_t>(k)]);
  }
  int budget = (missing + static_cast<int>(evaluations_left) - 1) /
               static_cast<int>(evaluations_left);
  for (int k = 0; k < params_.num_classes && budget > 0; ++k) {
    const int count = cache_.count[static_cast<size_t>(k)];
    if (count == 0) continue;
    const int done = cache_.borrowed_done[static_cast<size_t>(k)];
    const int n = std::min(Borrowed(k, count), done + budget);
    if (n <= done) continue;
    budget -= n - done;
    CacheBorrowedErrors(k, n);
  }
}

void RbmIm::ClearCache() {
  cache_.rows_done = 0;
  std::fill(cache_.count.begin(), cache_.count.end(), 0);
  std::fill(cache_.borrowed_done.begin(), cache_.borrowed_done.end(), 0);
}

void RbmIm::PayTraining(size_t budget) const {
  while (budget > 0 && owed_.passes > 0) {
    const Instance* batch = owed_.batch.data();
    if (owed_.next == 0) rbm_->BeginBatch(batch, owed_.used);
    const size_t end = owed_.next + std::min(budget, owed_.used - owed_.next);
    rbm_->TrainRange(batch, owed_.next, end);
    budget -= end - owed_.next;
    owed_.next = end;
    if (owed_.next == owed_.used) {
      rbm_->EndBatch(owed_.used);
      owed_.next = 0;
      --owed_.passes;
    }
  }
}

void RbmIm::Settle() const {
  PayTraining(std::numeric_limits<size_t>::max());
}

void RbmIm::ProcessBatch() {
  Settle();  // The monitor pass reads the RBM the last close trained.
  const bool warm = NextCloseIsWarm();
  ++batches_;

  // ---- Monitor: the per-class mean reconstruction error (Eq. 27) over
  // the class's newest pooled instances against the *current* model,
  // before it trains on this batch. Pooling across batches gives minority
  // classes a low-variance estimate. Errors the batch's observations
  // already cached are summed as they are; the rest are computed here.
  std::vector<double>& r_sum = r_sum_scratch_;
  r_sum.assign(static_cast<size_t>(params_.num_classes), 0.0);
  std::vector<int>& r_count = r_count_scratch_;
  r_count.assign(static_cast<size_t>(params_.num_classes), 0);
  if (!warm) {
    CacheRowErrors();
    // Newest first: frequent classes use exactly this batch's data
    // (undiluted signal), at most eval_pool rows of it; rare classes then
    // borrow a few recent older pooled instances to tame variance.
    for (size_t i = pending_used_; i-- > 0;) {
      const int label = pending_[i].label;
      if (label < 0 || label >= params_.num_classes) continue;
      const size_t k = static_cast<size_t>(label);
      if (r_count[k] < params_.eval_pool) {
        r_sum[k] += cache_.rows[i];
        ++r_count[k];
      }
    }
    for (int k = 0; k < params_.num_classes; ++k) {
      const size_t kk = static_cast<size_t>(k);
      if (cache_.count[kk] == 0) continue;  // No new data: no verdict.
      const int borrowed = Borrowed(k, cache_.count[kk]);
      CacheBorrowedErrors(k, borrowed);
      for (int j = 0; j < borrowed; ++j) {
        r_sum[kk] += cache_.borrowed[kk * kMinEval + static_cast<size_t>(j)];
      }
      r_count[kk] += borrowed;
    }
  }
  ClearCache();

  // Pool this batch's instances per class.
  for (size_t i = 0; i < pending_used_; ++i) {
    const Instance& s = pending_[i];
    if (s.label < 0 || s.label >= params_.num_classes) continue;
    ClassMonitor& m = monitors_[static_cast<size_t>(s.label)];
    if (m.recent.size() >= static_cast<size_t>(params_.eval_pool)) {
      // Pool is full: recycle the evicted oldest entry's buffer for the
      // incoming copy, so steady-state pooling reuses capacity instead of
      // allocating a fresh vector per instance.
      std::vector<double> slot = std::move(m.recent.front());
      m.recent.pop_front();
      slot.assign(s.features.begin(), s.features.end());
      m.recent.push_back(std::move(slot));
    } else {
      m.recent.push_back(s.features);
    }
  }

  // ---- Decide: feed monitors and run the per-class drift tests.
  bool any_drift = false;
  if (!warm) {
    for (int k = 0; k < params_.num_classes; ++k) {
      if (r_count[static_cast<size_t>(k)] == 0) continue;
      ClassMonitor& m = monitors_[static_cast<size_t>(k)];
      double r = r_sum[static_cast<size_t>(k)] /
                 static_cast<double>(r_count[static_cast<size_t>(k)]);
      m.last_r = r;
      ++m.batches_seen;

      // Jump-test z-score against the EWMA baseline (before updating it).
      // The variance floor keeps a freshly warmed (near-constant) baseline
      // from turning ordinary fluctuations into huge z-scores.
      double sd = std::max(m.baseline.StdDev(), params_.sigma_floor);
      m.last_z = m.baseline.n >= params_.min_batches
                     ? (r - m.baseline.mean) / sd
                     : 0.0;
      // Classic one-sided CUSUM on the z-score: stable phases (z ~ 0) drain
      // it by `slack` per batch, persistent elevation accumulates.
      m.cusum = std::max(0.0, m.cusum + m.last_z - params_.cusum_slack);

      m.adwin->AddValue(r);
      // Self-adaptive trend window, driven by ADWIN's current width
      // (Sec. V-B: "we propose to use a self-adaptive window size [19]").
      long long w = m.adwin->width();
      w = std::clamp<long long>(w, params_.trend_window_min,
                                params_.trend_window_max);
      m.trend->set_window(static_cast<size_t>(w));
      m.trend->Push(r);

      double slope = m.trend->Slope();
      m.trend_history.push_back(slope);
      size_t cap = 2 * static_cast<size_t>(params_.granger_window);
      while (m.trend_history.size() > cap) m.trend_history.pop_front();

      bool drifted = false;
      if (m.batches_seen >= params_.min_batches && DecideDrift(&m)) {
        any_drift = true;
        drifted = true;
        drifted_.push_back(k);
        ResetMonitor(&m);
      }
      if (!drifted) {
        m.baseline.Add(r, params_.baseline_decay);
        m.slope_stats.Add(slope);
      }
    }
  }
  if (any_drift) {
    state_ = DetectorState::kDrift;
  }

  // ---- Adapt: owe an online CD-k update with the skew-insensitive loss,
  // paid by the next observations (see step 3 in the header). After a
  // detected drift the batch is replayed to accelerate re-alignment.
  std::swap(pending_, owed_.batch);
  owed_.used = pending_used_;
  owed_.passes = 1 + (any_drift ? std::max(0, params_.post_drift_boost) : 0);
  owed_.next = 0;
  pending_used_ = 0;
}

bool RbmIm::JumpTest(ClassMonitor* m) const {
  if (m->baseline.n < params_.min_batches) return false;
  return m->last_z > params_.jump_sigmas ||
         m->cusum > params_.cusum_threshold;
}

bool RbmIm::TrendTest(ClassMonitor* m) const {
  // Reconstruction error must actually be deteriorating...
  bool error_increasing =
      m->trend->Slope() > 0.0 && m->last_r > m->trend->Mean();

  // ...with a slope that is an outlier of the class's own history...
  bool slope_outlier = false;
  if (m->slope_stats.count() >= static_cast<uint64_t>(params_.min_batches)) {
    double sd = m->slope_stats.StdDev();
    if (sd > 1e-12) {
      slope_outlier = (m->trend->Slope() - m->slope_stats.mean()) >
                      params_.slope_sigmas * sd;
    }
  }
  if (!error_increasing || !slope_outlier) return false;

  // ...and the Granger stage (Sec. V-B) must fail to tie the previous and
  // current trend windows causally (continuity lost => drift).
  size_t need = 2 * static_cast<size_t>(params_.granger_window);
  if (m->trend_history.size() < need) return true;  // Magnitude-only early.
  const auto split = m->trend_history.begin() +
                     static_cast<long>(params_.granger_window);
  std::vector<double>& prev = granger_prev_scratch_;
  std::vector<double>& cur = granger_cur_scratch_;
  prev.assign(m->trend_history.begin(), split);
  cur.assign(split, m->trend_history.end());
  GrangerResult g = GrangerCausalityFirstDiff(prev, cur, params_.granger_lag,
                                              params_.granger_alpha);
  return !g.valid || !g.causality_rejected;
}

bool RbmIm::DecideDrift(ClassMonitor* m) {
  switch (params_.trigger) {
    case Trigger::kZScore:
      return JumpTest(m);
    case Trigger::kAdwinOnly:
      return m->adwin->state() == DetectorState::kDrift &&
             m->last_r > m->trend->Mean();
    case Trigger::kGranger:
      return TrendTest(m);
    case Trigger::kCombined:
      // Jump test catches abrupt mismatches; the trend/Granger path slow
      // deteriorations; the ADWIN cut sustained mean shifts of R that are
      // individually too small for either (long gradual transitions).
      return JumpTest(m) || TrendTest(m) ||
             (m->adwin->state() == DetectorState::kDrift &&
              m->last_r > m->baseline.mean +
                              std::max(m->baseline.StdDev(),
                                       params_.sigma_floor));
  }
  return false;
}

}  // namespace ccd
