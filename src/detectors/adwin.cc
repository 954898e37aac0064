#include "detectors/adwin.h"

#include <cmath>

#include "io/codecs.h"
#include "utils/param_error.h"

namespace ccd {

Adwin::Adwin(const Params& params) : params_(params) {
  // Compress() merges the two oldest buckets of a row that holds more.
  ParamError::Require(params_.max_buckets >= 1, "adwin.max_buckets",
                      "be >= 1", params_.max_buckets);
  Reset();
}

void Adwin::Reset() {
  state_ = DetectorState::kStable;
  rows_.clear();
  rows_.emplace_back();
  total_sum_ = 0.0;
  total_var_ = 0.0;
  total_count_ = 0;
  since_check_ = 0;
}

void Adwin::AddValue(double value) {
  state_ = DetectorState::kStable;
  // New observations enter row 0 as singleton buckets.
  Bucket b;
  b.sum = value;
  b.count = 1;
  rows_[0].push_front(b);
  if (total_count_ > 0) {
    double mean = total_sum_ / static_cast<double>(total_count_);
    total_var_ += (value - mean) * (value - mean) * total_count_ /
                  static_cast<double>(total_count_ + 1);
  }
  total_sum_ += value;
  ++total_count_;
  Compress();

  if (++since_check_ >= params_.check_interval &&
      total_count_ >= params_.min_window) {
    since_check_ = 0;
    bool cut = false;
    while (DetectCut()) cut = true;
    if (cut) state_ = DetectorState::kDrift;
  }
}

void Adwin::Compress() {
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (static_cast<int>(rows_[r].size()) <= params_.max_buckets) break;
    // Merge the two oldest buckets of this row into the next row.
    if (r + 1 == rows_.size()) rows_.emplace_back();
    Bucket a = rows_[r].back();
    rows_[r].pop_back();
    Bucket b = rows_[r].back();
    rows_[r].pop_back();
    Bucket merged;
    merged.count = a.count + b.count;
    merged.sum = a.sum + b.sum;
    double mean_a = a.sum / a.count, mean_b = b.sum / b.count;
    merged.variance_sum = a.variance_sum + b.variance_sum +
                          (mean_a - mean_b) * (mean_a - mean_b) * a.count *
                              b.count / merged.count;
    rows_[r + 1].push_front(merged);
  }
}

bool Adwin::DetectCut() {
  if (total_count_ < params_.min_window) return false;
  // Scan split points from oldest to newest: W = W0 (old) + W1 (new).
  double sum0 = 0.0;
  long long n0 = 0;
  double variance =
      total_count_ > 1 ? total_var_ / static_cast<double>(total_count_) : 0.0;
  double delta_prime =
      params_.delta / std::log(static_cast<double>(total_count_) + 1.0);

  for (size_t r = rows_.size(); r-- > 0;) {
    for (size_t i = rows_[r].size(); i-- > 0;) {
      const Bucket& b = rows_[r][i];
      sum0 += b.sum;
      n0 += b.count;
      long long n1 = total_count_ - n0;
      if (n0 < 1 || n1 < 1) continue;
      double mean0 = sum0 / static_cast<double>(n0);
      double mean1 = (total_sum_ - sum0) / static_cast<double>(n1);
      double m = 1.0 / (1.0 / static_cast<double>(n0) +
                        1.0 / static_cast<double>(n1));
      double ln_term = std::log(2.0 / delta_prime);
      double eps = std::sqrt(2.0 / m * variance * ln_term) +
                   2.0 / (3.0 * m) * ln_term;
      if (std::fabs(mean0 - mean1) > eps) {
        // Drop the oldest bucket (shrink the window) and report the cut.
        size_t oldest_row = rows_.size();
        while (oldest_row-- > 0) {
          if (!rows_[oldest_row].empty()) break;
        }
        const Bucket& drop = rows_[oldest_row].back();
        total_sum_ -= drop.sum;
        total_count_ -= drop.count;
        total_var_ = total_var_ > drop.variance_sum
                         ? total_var_ - drop.variance_sum
                         : 0.0;
        rows_[oldest_row].pop_back();
        return true;
      }
    }
  }
  return false;
}

void Adwin::SaveState(io::Writer& w) const {
  w.BeginSection("ADWIN");
  io::WriteDetectorState(w, state_);
  w.U32(static_cast<uint32_t>(rows_.size()));
  for (const std::deque<Bucket>& row : rows_) {
    w.U32(static_cast<uint32_t>(row.size()));
    for (const Bucket& b : row) {
      w.F64(b.sum);
      w.F64(b.variance_sum);
      w.I64(b.count);
    }
  }
  w.F64(total_sum_);
  w.F64(total_var_);
  w.I64(total_count_);
  w.I64(since_check_);
  w.EndSection();
}

void Adwin::LoadState(io::Reader& r) {
  r.BeginSection("ADWIN");
  state_ = io::ReadDetectorState(r, "adwin.state");
  uint32_t nrows = r.Count("adwin.rows");
  if (nrows == 0) r.Fail("adwin.rows", "a live ADWIN always has row 0");
  rows_.clear();
  for (uint32_t i = 0; i < nrows; ++i) {
    rows_.emplace_back();
    uint32_t nbuckets = r.Count("adwin.row");
    // Compress() leaves no row above max_buckets.
    if (nbuckets > static_cast<uint32_t>(params_.max_buckets)) {
      r.Fail("adwin.row", std::to_string(nbuckets) +
                              " buckets in one row, max_buckets is " +
                              std::to_string(params_.max_buckets));
    }
    for (uint32_t j = 0; j < nbuckets; ++j) {
      Bucket b;
      b.sum = r.F64("adwin.bucket.sum");
      b.variance_sum = r.F64("adwin.bucket.variance_sum");
      b.count = r.I64("adwin.bucket.count");
      rows_.back().push_back(b);
    }
  }
  total_sum_ = r.F64("adwin.total_sum");
  total_var_ = r.F64("adwin.total_var");
  total_count_ = r.I64("adwin.total_count");
  since_check_ = r.I64("adwin.since_check");
  r.EndSection("ADWIN");
}

}  // namespace ccd
