#include "eval/metrics.h"

#include <algorithm>
#include <cstdint>

namespace ccd {
namespace {

/// Lower bounds of x[0..kLanes) in the sorted small[0..n), n >= 1. The
/// halving is branchless and its step count depends only on n, so the
/// lanes run in lockstep and their loads overlap.
template <int kLanes>
void LowerBounds(const double* small, size_t n, const double* x, size_t* lb) {
  for (int l = 0; l < kLanes; ++l) lb[l] = 0;
  for (; n > 1; n -= n / 2) {
    for (int l = 0; l < kLanes; ++l) {
      lb[l] = small[lb[l] + n / 2] < x[l] ? lb[l] + n / 2 : lb[l];
    }
  }
  for (int l = 0; l < kLanes; ++l) lb[l] += small[lb[l]] < x[l] ? 1 : 0;
}

/// Rank-sum AUC of pos[0..np) against neg[0..nn) (both scratch). Sorts the
/// smaller side in place and sums #(small < x) + #(small <= x) over the
/// larger side's x, searching an upper bound only on an exact tie. The sum
/// is 2U when the negatives are the smaller side, else 2 np nn - 2U.
double RankAuc(double* pos, size_t np, double* neg, size_t nn) {
  if (np == 0 || nn == 0) return 0.5;
  const bool pos_small = np < nn;
  double* small = pos_small ? pos : neg;
  const double* large = pos_small ? neg : pos;
  const size_t ns = pos_small ? np : nn;
  const size_t nl = pos_small ? nn : np;
  std::sort(small, small + ns);
  uint64_t below = 0;
  auto count = [&](size_t lb, double x) {
    size_t ub = lb;
    if (lb < ns && small[lb] == x) {
      ub = static_cast<size_t>(std::upper_bound(small + lb, small + ns, x) -
                               small);
    }
    below += lb + ub;
  };
  constexpr int kLanes = 8;
  size_t lb[kLanes];
  size_t x = 0;
  for (; x + kLanes <= nl; x += kLanes) {
    LowerBounds<kLanes>(small, ns, large + x, lb);
    for (int l = 0; l < kLanes; ++l) count(lb[l], large[x + l]);
  }
  for (; x < nl; ++x) {
    LowerBounds<1>(small, ns, large + x, lb);
    count(lb[0], large[x]);
  }
  const uint64_t twice_u = pos_small ? 2 * uint64_t{ns} * nl - below : below;
  return 0.5 * static_cast<double>(twice_u) /
         (static_cast<double>(np) * static_cast<double>(nn));
}

/// out[r] = si / (si + sj), or 0.5 when neither class has support.
void ScoreRatios(const double* si, const double* sj, size_t n, double* out) {
  for (size_t r = 0; r < n; ++r) {
    const double denom = si[r] + sj[r];
    out[r] = denom > 0.0 ? si[r] / denom : 0.5;
  }
}

}  // namespace

double BinaryAuc(const std::vector<double>& positive_scores,
                 const std::vector<double>& negative_scores) {
  std::vector<double> pos = positive_scores;
  std::vector<double> neg = negative_scores;
  return RankAuc(pos.data(), pos.size(), neg.data(), neg.size());
}

WindowedMetrics::WindowedMetrics(int num_classes, int window)
    : classes_(num_classes > 0 ? static_cast<size_t>(num_classes) : 0),
      window_(window),
      confusion_(num_classes) {
  if (window_ > 0) {
    slots_.reserve(static_cast<size_t>(window_));
    scores_.reserve(static_cast<size_t>(window_) * classes_);
  }
}

void WindowedMetrics::Add(int truth, int predicted,
                          const std::vector<double>& scores) {
  confusion_.Add(truth, predicted);
  if (window_ <= 0) {
    // Degenerate window: the entry enters and leaves immediately, exactly
    // as in the naive push-then-evict formulation.
    confusion_.Remove(truth, predicted);
    return;
  }
  size_t slot;
  if (slots_.size() < static_cast<size_t>(window_)) {
    // Filling: head_ is still 0, so physical == logical order.
    slot = slots_.size();
    slots_.emplace_back();
    scores_.resize(scores_.size() + classes_);
  } else {
    // Full: the oldest slot (at head_) is evicted and reused for the
    // newcomer, which thereby becomes the logical back.
    slot = head_;
    confusion_.Remove(slots_[slot].truth, slots_[slot].predicted);
    head_ = (head_ + 1) % static_cast<size_t>(window_);
  }
  Slot& s = slots_[slot];
  s.truth = truth;
  s.predicted = predicted;
  s.width = scores.size();
  const size_t stored = std::min(scores.size(), classes_);
  double* row = scores_.data() + slot * classes_;
  std::copy_n(scores.begin(), stored, row);
  std::fill(row + stored, row + classes_, 0.0);
  s.overflow.assign(scores.begin() + static_cast<long>(stored), scores.end());
}

double WindowedMetrics::PmAuc() const {
  const size_t k = classes_;
  // Pack the window class-major, and within a class column-major: class
  // c's rows occupy packed_[class_begin_[c] * k, class_begin_[c + 1] * k),
  // its column col the n_c entries from class_begin_[c] * k + col * n_c.
  class_begin_.assign(k + 1, 0);
  for (const Slot& s : slots_) {
    if (s.truth >= 0 && static_cast<size_t>(s.truth) < k) {
      ++class_begin_[static_cast<size_t>(s.truth) + 1];
    }
  }
  for (size_t c = 0; c < k; ++c) class_begin_[c + 1] += class_begin_[c];
  class_fill_.assign(class_begin_.begin(), class_begin_.end() - 1);
  // Sized by the whole window (not the in-range count) so the scratch
  // stops growing once the window has filled.
  packed_.resize(slots_.size() * k);
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    const int truth = slots_[slot].truth;
    if (truth < 0 || static_cast<size_t>(truth) >= k) continue;
    const size_t c = static_cast<size_t>(truth);
    const size_t n = class_begin_[c + 1] - class_begin_[c];
    double* dst = packed_.data() + class_begin_[c] * k +
                  (class_fill_[c]++ - class_begin_[c]);
    const double* row = scores_.data() + slot * k;
    for (size_t col = 0; col < k; ++col) dst[col * n] = row[col];
  }

  pos_scratch_.resize(slots_.size());
  neg_scratch_.resize(slots_.size());
  double auc_sum = 0.0;
  int pairs = 0;
  for (size_t i = 0; i < k; ++i) {
    const size_t ni = class_begin_[i + 1] - class_begin_[i];
    if (ni == 0) continue;
    const double* bi = packed_.data() + class_begin_[i] * k;
    for (size_t j = i + 1; j < k; ++j) {
      const size_t nj = class_begin_[j + 1] - class_begin_[j];
      if (nj == 0) continue;
      // One-vs-one AUC between classes i (positive) and j (negative),
      // scoring each instance by its normalized support for class i.
      const double* bj = packed_.data() + class_begin_[j] * k;
      ScoreRatios(bi + i * ni, bi + j * ni, ni, pos_scratch_.data());
      ScoreRatios(bj + i * nj, bj + j * nj, nj, neg_scratch_.data());
      auc_sum += RankAuc(pos_scratch_.data(), ni, neg_scratch_.data(), nj);
      ++pairs;
    }
  }
  return pairs > 0 ? auc_sum / pairs : 0.5;
}

void WindowedMetrics::CopyWindow(std::vector<Entry>* out) const {
  const size_t n = slots_.size();
  out->reserve(out->size() + n);
  for (size_t k = 0; k < n; ++k) {
    const size_t slot = (head_ + k) % n;
    const Slot& s = slots_[slot];
    const double* row = scores_.data() + slot * classes_;
    Entry e{s.truth, s.predicted,
            std::vector<double>(row, row + std::min(s.width, classes_))};
    e.scores.insert(e.scores.end(), s.overflow.begin(), s.overflow.end());
    out->push_back(std::move(e));
  }
}

}  // namespace ccd
