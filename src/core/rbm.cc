#include "core/rbm.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "io/codecs.h"

namespace ccd {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

void SigmoidInPlace(std::vector<double>* x) {
  for (double& a : *x) a = Sigmoid(a);
}

void SoftmaxInPlace(std::vector<double>* logits) {
  double max_logit = -1e300;
  for (double l : *logits) {
    if (l > max_logit) max_logit = l;
  }
  double total = 0.0;
  for (double& l : *logits) {
    l = std::exp(l - max_logit);
    total += l;
  }
  for (double& l : *logits) l /= total;
}

}  // namespace

void Rbm::ValidateParams(const Params& p) {
  ParamError::Require(p.visible >= 1, "rbm.visible", "be >= 1", p.visible);
  ParamError::Require(p.hidden >= 1, "rbm.hidden", "be >= 1", p.hidden);
  ParamError::Require(p.classes >= 1, "rbm.classes", "be >= 1", p.classes);
  ParamError::Require(p.cd_steps >= 1, "rbm.cd_steps",
                      "be >= 1 (CD-k needs a Gibbs step)", p.cd_steps);
  ParamError::Require(std::isfinite(p.learning_rate) && p.learning_rate > 0.0,
                      "rbm.learning_rate", "be finite and > 0",
                      p.learning_rate);
  ParamError::Require(
      std::isfinite(p.discriminative_rate) && p.discriminative_rate >= 0.0,
      "rbm.discriminative_rate", "be finite and >= 0", p.discriminative_rate);
  ParamError::Require(
      std::isfinite(p.weight_init_sigma) && p.weight_init_sigma >= 0.0,
      "rbm.weight_init_sigma", "be finite and >= 0", p.weight_init_sigma);
  ParamError::Require(p.beta > 0.0 && p.beta < 1.0, "rbm.beta",
                      "lie in (0,1)", p.beta);
  ParamError::Require(p.count_decay > 0.0 && p.count_decay <= 1.0,
                      "rbm.count_decay", "lie in (0,1]", p.count_decay);
}

Rbm::Rbm(const Params& params, uint64_t seed) : params_(params), rng_(seed) {
  ValidateParams(params_);
  const size_t v = static_cast<size_t>(params_.visible);
  const size_t h = static_cast<size_t>(params_.hidden);
  const size_t z = static_cast<size_t>(params_.classes);
  w_.resize(v * h);
  u_.resize(h * z);
  for (double& x : w_) x = rng_.Gaussian(0.0, params_.weight_init_sigma);
  for (double& x : u_) x = rng_.Gaussian(0.0, params_.weight_init_sigma);
  a_.assign(v, 0.0);
  b_.assign(h, 0.0);
  c_.assign(z, 0.0);
  class_counts_.assign(z, 0.0);
}

void Rbm::VisiblePreactivationInto(const std::vector<double>& v,
                                   std::vector<double>* pre) const {
  const size_t v_n = static_cast<size_t>(params_.visible);
  const size_t h_n = static_cast<size_t>(params_.hidden);
  pre->assign(b_.begin(), b_.end());
  double* acc = pre->data();
  // Row i of W is contiguous: one sweep adds v_i W_ij to every unit j, so
  // each unit still sums its products in ascending i.
  for (size_t i = 0; i < v_n; ++i) {
    const double vi = v[i];
    const double* row = &w_[i * h_n];
    for (size_t j = 0; j < h_n; ++j) acc[j] += vi * row[j];
  }
}

void Rbm::AddClassInput(const std::vector<double>& z,
                        std::vector<double>* act) const {
  const size_t h_n = static_cast<size_t>(params_.hidden);
  const size_t z_n = static_cast<size_t>(params_.classes);
  double* acc = act->data();
  for (size_t j = 0; j < h_n; ++j) {
    const double* row = &u_[j * z_n];
    double s = acc[j];
    for (size_t k = 0; k < z_n; ++k) s += z[k] * row[k];
    acc[j] = s;
  }
}

void Rbm::HiddenProbsInto(const std::vector<double>& v,
                          const std::vector<double>& z,
                          std::vector<double>* out) const {
  VisiblePreactivationInto(v, out);
  AddClassInput(z, out);
  SigmoidInPlace(out);
}

void Rbm::VisibleProbsInto(const std::vector<double>& h,
                           std::vector<double>* out) const {
  const size_t v_n = static_cast<size_t>(params_.visible);
  const size_t h_n = static_cast<size_t>(params_.hidden);
  std::vector<double>& pv = *out;
  pv.resize(v_n);
  const double* hp = h.data();
  // Four rows at a time: their sums are independent dependency chains
  // that overlap in the pipeline, while each still adds in ascending j.
  size_t i = 0;
  for (; i + 4 <= v_n; i += 4) {
    const double* r0 = &w_[i * h_n];
    const double* r1 = r0 + h_n;
    const double* r2 = r1 + h_n;
    const double* r3 = r2 + h_n;
    double s0 = a_[i], s1 = a_[i + 1], s2 = a_[i + 2], s3 = a_[i + 3];
    for (size_t j = 0; j < h_n; ++j) {
      const double hj = hp[j];
      s0 += hj * r0[j];
      s1 += hj * r1[j];
      s2 += hj * r2[j];
      s3 += hj * r3[j];
    }
    pv[i] = Sigmoid(s0);
    pv[i + 1] = Sigmoid(s1);
    pv[i + 2] = Sigmoid(s2);
    pv[i + 3] = Sigmoid(s3);
  }
  for (; i < v_n; ++i) {
    const double* row = &w_[i * h_n];
    double s = a_[i];
    for (size_t j = 0; j < h_n; ++j) s += hp[j] * row[j];
    pv[i] = Sigmoid(s);
  }
}

void Rbm::ClassProbsInto(const std::vector<double>& h,
                         std::vector<double>* out) const {
  const size_t h_n = static_cast<size_t>(params_.hidden);
  const size_t z_n = static_cast<size_t>(params_.classes);
  std::vector<double>& logits = *out;
  logits.assign(c_.begin(), c_.end());
  double* acc = logits.data();
  for (size_t j = 0; j < h_n; ++j) {
    const double hj = h[j];
    const double* row = &u_[j * z_n];
    for (size_t k = 0; k < z_n; ++k) acc[k] += hj * row[k];
  }
  SoftmaxInPlace(out);
}

double Rbm::ClassWeight(int y) const {
  // A local buffer, not the in-flight batch's weights: a read between
  // TrainRange calls must not change what the rest of the batch trains on.
  std::vector<double> weights;
  ClassWeightsInto(&weights);
  return weights[static_cast<size_t>(y)];
}

void Rbm::ClassWeightsInto(std::vector<double>* out) const {
  std::vector<double>& w = *out;
  w.assign(class_counts_.size(), 1.0);
  if (!params_.class_balanced) return;
  // Effective number of samples E_n = (1 - beta^n) / (1 - beta); raw
  // weight = 1/E_n. Normalize by the mean raw weight over observed classes
  // so the global learning-rate scale is unaffected by K or stream length.
  auto raw = [this](double n) {
    if (n <= 0.0) return 1.0;  // Unseen class: maximal raw weight.
    double eff = (1.0 - std::pow(params_.beta, n)) / (1.0 - params_.beta);
    return 1.0 / eff;
  };
  double sum = 0.0;
  int seen = 0;
  for (size_t k = 0; k < w.size(); ++k) {
    w[k] = raw(class_counts_[k]);
    if (class_counts_[k] > 0.0) {
      sum += w[k];
      ++seen;
    }
  }
  if (seen == 0) {
    std::fill(w.begin(), w.end(), 1.0);
    return;
  }
  double mean = sum / seen;
  for (double& x : w) {
    x /= mean;
    // Clamp to keep one rare instance from destabilizing the whole model.
    if (x > 50.0) x = 50.0;
  }
}

void Rbm::TrainBatch(const Instance* batch, size_t count) {
  if (count == 0) return;
  BeginBatch(batch, count);
  TrainRange(batch, 0, count);
  EndBatch(count);
}

void Rbm::BeginBatch(const Instance* batch, size_t count) {
  const size_t v_n = static_cast<size_t>(params_.visible);
  const size_t h_n = static_cast<size_t>(params_.hidden);
  const size_t z_n = static_cast<size_t>(params_.classes);
  batch_.gw.assign(v_n * h_n, 0.0);
  batch_.gu.assign(h_n * z_n, 0.0);
  batch_.ga.assign(v_n, 0.0);
  batch_.gb.assign(h_n, 0.0);
  batch_.gc.assign(z_n, 0.0);

  // Update the decayed class counts first so this batch's weights reflect
  // its own composition.
  for (size_t bi = 0; bi < count; ++bi) {
    const Instance& s = batch[bi];
    for (double& n : class_counts_) n *= params_.count_decay;
    if (s.label >= 0 && s.label < params_.classes) {
      class_counts_[static_cast<size_t>(s.label)] += 1.0;
    }
  }
  // The counts stay fixed for the rest of the batch, and so do the weights.
  ClassWeightsInto(&batch_.class_weight);
}

void Rbm::TrainRange(const Instance* batch, size_t begin, size_t end) {
  const size_t v_n = static_cast<size_t>(params_.visible);
  const size_t h_n = static_cast<size_t>(params_.hidden);
  const size_t z_n = static_cast<size_t>(params_.classes);
  std::vector<double>& gw = batch_.gw;
  std::vector<double>& gu = batch_.gu;
  std::vector<double>& ga = batch_.ga;
  std::vector<double>& gb = batch_.gb;
  std::vector<double>& gc = batch_.gc;
  const std::vector<double>& class_weight = batch_.class_weight;

  std::vector<double>& z0 = scratch_.z0;
  std::vector<double>& h_state = scratch_.h_state;
  z0.resize(z_n);
  h_state.resize(h_n);
  for (size_t bi = begin; bi < end; ++bi) {
    const Instance& s = batch[bi];
    if (s.label < 0 || s.label >= params_.classes) continue;
    const std::vector<double>& v0 = s.features;
    std::fill(z0.begin(), z0.end(), 0.0);
    z0[static_cast<size_t>(s.label)] = 1.0;
    const double weight = class_weight[static_cast<size_t>(s.label)];

    // Positive phase: E_data[.] with clamped (v0, z0). The visible
    // pre-activation b + W^T v0 is computed once: ph0 adds the clamped
    // label's input to it, and the discriminative step below encodes v0
    // with the same W and b (neither changes before that step).
    std::vector<double>& hv = scratch_.hv;
    std::vector<double>& ph0 = scratch_.ph0;
    VisiblePreactivationInto(v0, &hv);
    ph0.assign(hv.begin(), hv.end());
    AddClassInput(z0, &ph0);
    SigmoidInPlace(&ph0);

    // Negative phase: CD-k. Hidden states are sampled; visible and class
    // reconstructions use probabilities (standard CD practice).
    for (size_t j = 0; j < h_n; ++j) {
      h_state[j] = rng_.Bernoulli(ph0[j]) ? 1.0 : 0.0;
    }
    std::vector<double>& vk = scratch_.vk;
    std::vector<double>& zk = scratch_.zk;
    std::vector<double>& phk = scratch_.phk;
    for (int step = 0; step < params_.cd_steps; ++step) {
      VisibleProbsInto(h_state, &vk);
      ClassProbsInto(h_state, &zk);
      HiddenProbsInto(vk, zk, &phk);
      if (step + 1 < params_.cd_steps) {
        for (size_t j = 0; j < h_n; ++j) {
          h_state[j] = rng_.Bernoulli(phk[j]) ? 1.0 : 0.0;
        }
      }
    }

    // Weighted gradient accumulation: E_data - E_recon (Eq. 16).
    for (size_t i = 0; i < v_n; ++i) {
      double vi0 = v0[i], vik = vk[i];
      for (size_t j = 0; j < h_n; ++j) {
        gw[i * h_n + j] += weight * (vi0 * ph0[j] - vik * phk[j]);
      }
      ga[i] += weight * (vi0 - vik);
    }
    for (size_t j = 0; j < h_n; ++j) {
      for (size_t k = 0; k < z_n; ++k) {
        gu[j * z_n + k] += weight * (ph0[j] * z0[k] - phk[j] * zk[k]);
      }
      gb[j] += weight * (ph0[j] - phk[j]);
    }
    for (size_t k = 0; k < z_n; ++k) {
      gc[k] += weight * (z0[k] - zk[k]);
    }

    // Discriminative step: cross-entropy gradient of -log P(y | v),
    // backpropagated through the visible-only hidden encoding (one-hidden-
    // layer MLP step on U, c, W, b). This is what makes the class read-out
    // track p(y|x) sharply enough for Eq. 26's label term to carry signal.
    if (params_.discriminative_rate > 0.0) {
      std::vector<double>& py = scratch_.py;
      std::vector<double>& err = scratch_.err;
      std::vector<double>& dh = scratch_.dh;
      std::vector<double>& g = scratch_.g;
      SigmoidInPlace(&hv);
      ClassProbsInto(hv, &py);
      // Per-instance SGD step (unlike the CD update, which is a batch
      // mean); the cost clamp keeps extreme minority weights from blowing
      // up a single step.
      const double dlr = params_.discriminative_rate * std::min(weight, 5.0);
      // A class whose error is exactly 0 moves neither c_k, column k of U,
      // nor any dh_j.
      err.resize(z_n);
      for (size_t k = 0; k < z_n; ++k) {
        err[k] = z0[k] - py[k];
        if (err[k] != 0.0) c_[k] += dlr * err[k];
      }
      dh.resize(h_n);
      for (size_t j = 0; j < h_n; ++j) {
        double* u_row = &u_[j * z_n];
        const double hj = hv[j];
        double d = 0.0;
        for (size_t k = 0; k < z_n; ++k) {
          const double e = err[k];
          if (e == 0.0) continue;
          d += e * u_row[k];  // Reads U_jk before its own update.
          u_row[k] += dlr * e * hj;
        }
        dh[j] = d;
      }
      // Likewise a hidden unit with g_j == 0 moves neither b_j nor column
      // j of W, which is swept row by row.
      g.resize(h_n);
      for (size_t j = 0; j < h_n; ++j) {
        g[j] = dh[j] * hv[j] * (1.0 - hv[j]);
        if (g[j] != 0.0) b_[j] += dlr * g[j];
      }
      for (size_t i = 0; i < v_n; ++i) {
        const double vi = v0[i];
        double* w_row = &w_[i * h_n];
        for (size_t j = 0; j < h_n; ++j) {
          w_row[j] = g[j] == 0.0 ? w_row[j] : w_row[j] + dlr * g[j] * vi;
        }
      }
    }
  }

}

void Rbm::EndBatch(size_t count) {
  double lr = params_.learning_rate / static_cast<double>(count);
  for (size_t i = 0; i < w_.size(); ++i) w_[i] += lr * batch_.gw[i];
  for (size_t i = 0; i < u_.size(); ++i) u_[i] += lr * batch_.gu[i];
  for (size_t i = 0; i < a_.size(); ++i) a_[i] += lr * batch_.ga[i];
  for (size_t i = 0; i < b_.size(); ++i) b_[i] += lr * batch_.gb[i];
  for (size_t i = 0; i < c_.size(); ++i) c_[i] += lr * batch_.gc[i];
}

double Rbm::ReconstructionError(const std::vector<double>& x, int y) const {
  std::vector<double>& z = scratch_.z;
  z.assign(static_cast<size_t>(params_.classes), 0.0);
  if (y >= 0 && y < params_.classes) z[static_cast<size_t>(y)] = 1.0;
  std::vector<double>& h = scratch_.h;
  std::vector<double>& h2 = scratch_.h2;
  std::vector<double>& xr = scratch_.xr;
  std::vector<double>& zr = scratch_.zr;
  // Both hidden encodings of x share b + W^T x: the label-clamped one adds
  // z's input on top, the read-out's uses it as is.
  VisiblePreactivationInto(x, &h2);
  h.assign(h2.begin(), h2.end());
  AddClassInput(z, &h);
  SigmoidInPlace(&h);   // Mean-field h | v, z (Eq. 25).
  SigmoidInPlace(&h2);  // h | v alone, for the label read-out.
  VisibleProbsInto(h, &xr);  // Eq. 23.
  ClassProbsInto(h2, &zr);   // Eq. 24, read out from v.
  double sq = 0.0;
  for (int i = 0; i < params_.visible; ++i) {
    double d = x[static_cast<size_t>(i)] - xr[static_cast<size_t>(i)];
    sq += d * d;
  }
  for (int k = 0; k < params_.classes; ++k) {
    double d = z[static_cast<size_t>(k)] - zr[static_cast<size_t>(k)];
    sq += d * d;
  }
  // Eq. 26 with a 1/sqrt(V+Z) normalization for a bounded signal.
  return std::sqrt(sq) /
         std::sqrt(static_cast<double>(params_.visible + params_.classes));
}

double Rbm::Energy(const std::vector<double>& v, const std::vector<double>& h,
                   const std::vector<double>& z) const {
  double e = 0.0;
  for (int i = 0; i < params_.visible; ++i) {
    e -= v[static_cast<size_t>(i)] * a_[static_cast<size_t>(i)];
  }
  for (int j = 0; j < params_.hidden; ++j) {
    e -= h[static_cast<size_t>(j)] * b_[static_cast<size_t>(j)];
  }
  for (int k = 0; k < params_.classes; ++k) {
    e -= z[static_cast<size_t>(k)] * c_[static_cast<size_t>(k)];
  }
  for (int i = 0; i < params_.visible; ++i) {
    for (int j = 0; j < params_.hidden; ++j) {
      e -= v[static_cast<size_t>(i)] * h[static_cast<size_t>(j)] * Wc(i, j);
    }
  }
  for (int j = 0; j < params_.hidden; ++j) {
    for (int k = 0; k < params_.classes; ++k) {
      e -= h[static_cast<size_t>(j)] * z[static_cast<size_t>(k)] * Uc(j, k);
    }
  }
  return e;
}

void Rbm::SaveState(io::Writer& w) const {
  w.BeginSection("rbm");
  io::WriteRng(w, rng_);
  w.F64Array(w_);
  w.F64Array(u_);
  w.F64Array(a_);
  w.F64Array(b_);
  w.F64Array(c_);
  w.F64Array(class_counts_);
  w.EndSection();
}

void Rbm::LoadState(io::Reader& r) {
  r.BeginSection("rbm");
  io::ReadRngInto(r, &rng_);
  std::vector<double> w_in = r.F64Array("rbm.w");
  std::vector<double> u_in = r.F64Array("rbm.u");
  std::vector<double> a_in = r.F64Array("rbm.a");
  std::vector<double> b_in = r.F64Array("rbm.b");
  std::vector<double> c_in = r.F64Array("rbm.c");
  std::vector<double> counts_in = r.F64Array("rbm.class_counts");
  size_t v = static_cast<size_t>(params_.visible);
  size_t h = static_cast<size_t>(params_.hidden);
  size_t z = static_cast<size_t>(params_.classes);
  if (w_in.size() != v * h || u_in.size() != h * z || a_in.size() != v ||
      b_in.size() != h || c_in.size() != z || counts_in.size() != z) {
    r.Fail("rbm.w", "weight array sizes disagree with layer dimensions " +
                        std::to_string(params_.visible) + "x" +
                        std::to_string(params_.hidden) + "x" +
                        std::to_string(params_.classes));
  }
  w_ = std::move(w_in);
  u_ = std::move(u_in);
  a_ = std::move(a_in);
  b_ = std::move(b_in);
  c_ = std::move(c_in);
  class_counts_ = std::move(counts_in);
  r.EndSection("rbm");
}

}  // namespace ccd
