// Differential test of the RBM kernels against the per-unit loops they
// replaced.
//
// The production Rbm walks W and U row by row, shares the visible
// pre-activation b + W^T v between the passes that encode the same v, and
// computes the class-balanced weights once per mini-batch. Each of those
// may change how the work is ordered across output units but never the
// order of one unit's sum, so every output must match the textbook loops
// bit for bit. NaiveRbmOracle below is those loops, kept verbatim as the
// executable spec (one output unit at a time, W and U walked by column,
// the pre-activation recomputed per pass, ClassWeight per instance). Both
// models start from the same serialized state, train on the same batches
// and are compared with memcmp, down to the RNG cursor. The update also
// runs in steps (BeginBatch, TrainRange, EndBatch), which RBM-IM uses to
// spread a close's training; every way of splitting a batch must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/rbm.h"
#include "io/codecs.h"
#include "io/wire.h"
#include "utils/rng.h"

namespace ccd {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

class NaiveRbmOracle {
 public:
  /// Random model state: weights and biases ~ N(0, sigma), every fifth
  /// one -0.0. A large sigma saturates sigmoids and softmaxes to exact
  /// 0/1, which drives the discriminative step's skip branches (err == 0,
  /// g == 0). An extreme sigma also zeroes many CD gradient entries, so a
  /// -0.0 weight that a skipped update leaves alone survives the batch
  /// and tells the skip from an added +0.0 (-0.0 + 0.0 is +0.0).
  NaiveRbmOracle(const Rbm::Params& p, uint64_t seed, double sigma)
      : p_(p), rng_(seed) {
    Rng init(seed + 1);
    auto fill = [&init, sigma](std::vector<double>* x, size_t n) {
      x->resize(n);
      for (size_t i = 0; i < n; ++i) {
        (*x)[i] = i % 5 == 4 ? -0.0 : init.Gaussian(0.0, sigma);
      }
    };
    const size_t v = static_cast<size_t>(p.visible);
    const size_t h = static_cast<size_t>(p.hidden);
    const size_t z = static_cast<size_t>(p.classes);
    fill(&w_, v * h);
    fill(&u_, h * z);
    fill(&a_, v);
    fill(&b_, h);
    fill(&c_, z);
    counts_.assign(z, 0.0);
  }

  /// Rbm::SaveState's wire layout.
  std::string Save() const {
    io::Writer w;
    w.BeginSection("rbm");
    io::WriteRng(w, rng_);
    w.F64Array(w_);
    w.F64Array(u_);
    w.F64Array(a_);
    w.F64Array(b_);
    w.F64Array(c_);
    w.F64Array(counts_);
    w.EndSection();
    return w.data();
  }

  /// A production Rbm holding exactly this state.
  Rbm Load() const {
    Rbm rbm(p_, 0);
    const std::string bytes = Save();  // Reader keeps a reference.
    io::Reader r(bytes);
    rbm.LoadState(r);
    return rbm;
  }

  std::vector<double> HiddenProbs(const std::vector<double>& v,
                                  const std::vector<double>& z) const {
    std::vector<double> ph(static_cast<size_t>(p_.hidden));
    for (int j = 0; j < p_.hidden; ++j) {
      double act = b_[static_cast<size_t>(j)];
      for (int i = 0; i < p_.visible; ++i) {
        act += v[static_cast<size_t>(i)] * W(i, j);
      }
      for (int k = 0; k < p_.classes; ++k) {
        act += z[static_cast<size_t>(k)] * U(j, k);
      }
      ph[static_cast<size_t>(j)] = Sigmoid(act);
    }
    return ph;
  }

  std::vector<double> VisibleProbs(const std::vector<double>& h) const {
    std::vector<double> pv(static_cast<size_t>(p_.visible));
    for (int i = 0; i < p_.visible; ++i) {
      double act = a_[static_cast<size_t>(i)];
      for (int j = 0; j < p_.hidden; ++j) {
        act += h[static_cast<size_t>(j)] * W(i, j);
      }
      pv[static_cast<size_t>(i)] = Sigmoid(act);
    }
    return pv;
  }

  std::vector<double> HiddenFromVisible(const std::vector<double>& v) const {
    std::vector<double> ph(static_cast<size_t>(p_.hidden));
    for (int j = 0; j < p_.hidden; ++j) {
      double act = b_[static_cast<size_t>(j)];
      for (int i = 0; i < p_.visible; ++i) {
        act += v[static_cast<size_t>(i)] * W(i, j);
      }
      ph[static_cast<size_t>(j)] = Sigmoid(act);
    }
    return ph;
  }

  std::vector<double> ClassProbs(const std::vector<double>& h) const {
    std::vector<double> logits(static_cast<size_t>(p_.classes));
    double max_logit = -1e300;
    for (int k = 0; k < p_.classes; ++k) {
      double act = c_[static_cast<size_t>(k)];
      for (int j = 0; j < p_.hidden; ++j) {
        act += h[static_cast<size_t>(j)] * U(j, k);
      }
      logits[static_cast<size_t>(k)] = act;
      if (act > max_logit) max_logit = act;
    }
    double total = 0.0;
    for (double& l : logits) {
      l = std::exp(l - max_logit);
      total += l;
    }
    for (double& l : logits) l /= total;
    return logits;
  }

  std::vector<double> ClassReadout(const std::vector<double>& v) const {
    return ClassProbs(HiddenFromVisible(v));
  }

  double ClassWeight(int y) const {
    if (!p_.class_balanced) return 1.0;
    auto raw = [this](double n) {
      if (n <= 0.0) return 1.0;
      double eff = (1.0 - std::pow(p_.beta, n)) / (1.0 - p_.beta);
      return 1.0 / eff;
    };
    double sum = 0.0;
    int seen = 0;
    for (double n : counts_) {
      if (n > 0.0) {
        sum += raw(n);
        ++seen;
      }
    }
    if (seen == 0) return 1.0;
    double mean = sum / seen;
    double w = raw(counts_[static_cast<size_t>(y)]) / mean;
    return w > 50.0 ? 50.0 : w;
  }

  double ReconstructionError(const std::vector<double>& x, int y) const {
    std::vector<double> z(static_cast<size_t>(p_.classes), 0.0);
    if (y >= 0 && y < p_.classes) z[static_cast<size_t>(y)] = 1.0;
    std::vector<double> h = HiddenProbs(x, z);
    std::vector<double> xr = VisibleProbs(h);
    std::vector<double> zr = ClassReadout(x);
    double sq = 0.0;
    for (int i = 0; i < p_.visible; ++i) {
      double d = x[static_cast<size_t>(i)] - xr[static_cast<size_t>(i)];
      sq += d * d;
    }
    for (int k = 0; k < p_.classes; ++k) {
      double d = z[static_cast<size_t>(k)] - zr[static_cast<size_t>(k)];
      sq += d * d;
    }
    return std::sqrt(sq) /
           std::sqrt(static_cast<double>(p_.visible + p_.classes));
  }

  void TrainBatch(const std::vector<Instance>& batch) {
    if (batch.empty()) return;
    const size_t v_n = static_cast<size_t>(p_.visible);
    const size_t h_n = static_cast<size_t>(p_.hidden);
    const size_t z_n = static_cast<size_t>(p_.classes);
    std::vector<double> gw(v_n * h_n, 0.0), gu(h_n * z_n, 0.0);
    std::vector<double> ga(v_n, 0.0), gb(h_n, 0.0), gc(z_n, 0.0);
    for (const Instance& s : batch) {
      for (double& n : counts_) n *= p_.count_decay;
      if (s.label >= 0 && s.label < p_.classes) {
        counts_[static_cast<size_t>(s.label)] += 1.0;
      }
    }
    for (const Instance& s : batch) {
      if (s.label < 0 || s.label >= p_.classes) continue;
      const std::vector<double>& v0 = s.features;
      std::vector<double> z0(z_n, 0.0);
      z0[static_cast<size_t>(s.label)] = 1.0;
      double weight = ClassWeight(s.label);
      std::vector<double> ph0 = HiddenProbs(v0, z0);
      std::vector<double> h_state(h_n);
      for (size_t j = 0; j < h_n; ++j) {
        h_state[j] = rng_.Bernoulli(ph0[j]) ? 1.0 : 0.0;
      }
      std::vector<double> vk, zk, phk;
      for (int step = 0; step < p_.cd_steps; ++step) {
        vk = VisibleProbs(h_state);
        zk = ClassProbs(h_state);
        phk = HiddenProbs(vk, zk);
        if (step + 1 < p_.cd_steps) {
          for (size_t j = 0; j < h_n; ++j) {
            h_state[j] = rng_.Bernoulli(phk[j]) ? 1.0 : 0.0;
          }
        }
      }
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
      for (size_t k = 0; k < z_n; ++k) gc[k] += weight * (z0[k] - zk[k]);

      if (p_.discriminative_rate > 0.0) {
        std::vector<double> hv = HiddenFromVisible(v0);
        std::vector<double> py = ClassProbs(hv);
        double dlr = p_.discriminative_rate * std::min(weight, 5.0);
        std::vector<double> dh(h_n, 0.0);
        for (size_t k = 0; k < z_n; ++k) {
          double err = z0[k] - py[k];
          if (err == 0.0) continue;
          c_[k] += dlr * err;
          for (size_t j = 0; j < h_n; ++j) {
            int jj = static_cast<int>(j), kk = static_cast<int>(k);
            dh[j] += err * U(jj, kk);
            MutableU(jj, kk) += dlr * err * hv[j];
          }
        }
        for (size_t j = 0; j < h_n; ++j) {
          double g = dh[j] * hv[j] * (1.0 - hv[j]);
          if (g == 0.0) continue;
          b_[j] += dlr * g;
          for (size_t i = 0; i < v_n; ++i) {
            MutableW(static_cast<int>(i), static_cast<int>(j)) +=
                dlr * g * v0[i];
          }
        }
      }
    }
    double lr = p_.learning_rate / static_cast<double>(batch.size());
    for (size_t i = 0; i < w_.size(); ++i) w_[i] += lr * gw[i];
    for (size_t i = 0; i < u_.size(); ++i) u_[i] += lr * gu[i];
    for (size_t i = 0; i < a_.size(); ++i) a_[i] += lr * ga[i];
    for (size_t i = 0; i < b_.size(); ++i) b_[i] += lr * gb[i];
    for (size_t i = 0; i < c_.size(); ++i) c_[i] += lr * gc[i];
  }

 /// Adds `delta` to one W entry.
  void NudgeWeight(size_t index, double delta) { w_[index] += delta; }

 private:
  double W(int i, int j) const {
    return w_[static_cast<size_t>(i) * static_cast<size_t>(p_.hidden) +
              static_cast<size_t>(j)];
  }
  double& MutableW(int i, int j) {
    return w_[static_cast<size_t>(i) * static_cast<size_t>(p_.hidden) +
              static_cast<size_t>(j)];
  }
  double U(int j, int k) const {
    return u_[static_cast<size_t>(j) * static_cast<size_t>(p_.classes) +
              static_cast<size_t>(k)];
  }
  double& MutableU(int j, int k) {
    return u_[static_cast<size_t>(j) * static_cast<size_t>(p_.classes) +
              static_cast<size_t>(k)];
  }

  Rbm::Params p_;
  Rng rng_;
  std::vector<double> w_, u_, a_, b_, c_, counts_;
};

std::string SaveRbm(const Rbm& rbm) {
  io::Writer w;
  rbm.SaveState(w);
  return w.data();
}

/// memcmp equality, so -0.0 vs +0.0 and NaN payloads count as
/// differences.
::testing::AssertionResult SameBits(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", the naive loop gives "
           << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " is " << got[i]
             << ", the naive loop gives " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(double got, double want) {
  return SameBits(std::vector<double>{got}, std::vector<double>{want});
}

/// Byte equality of the serialized models: every weight, bias and class
/// count, and the RNG cursor.
::testing::AssertionResult SameState(const Rbm& rbm,
                                     const NaiveRbmOracle& oracle) {
  const std::string got = SaveRbm(rbm);
  const std::string want = oracle.Save();
  if (got == want) return ::testing::AssertionSuccess();
  const size_t n = std::min(got.size(), want.size());
  size_t at = 0;
  while (at < n && got[at] == want[at]) ++at;
  return ::testing::AssertionFailure()
         << "serialized state differs at byte " << at << " of " << got.size();
}

/// Features in [0,1], about one in eight pinned to exactly 0 or 1.
std::vector<double> DrawFeatures(Rng* rng, int v) {
  std::vector<double> x(static_cast<size_t>(v));
  for (double& xi : x) {
    double u = rng->NextDouble();
    xi = u < 0.0625 ? 0.0 : (u < 0.125 ? 1.0 : rng->NextDouble());
  }
  return x;
}

/// Skewed labels (class k drawn about twice as often as k+1), so the
/// class-balanced weights differ and the rarest classes often go unseen;
/// one in sixteen is the out-of-range -1 that TrainBatch skips.
int DrawLabel(Rng* rng, int z) {
  if (rng->NextDouble() < 0.0625) return -1;
  int y = 0;
  while (y + 1 < z && rng->NextDouble() < 0.5) ++y;
  return y;
}

/// Ordinary, saturating and extreme weight scales (see NaiveRbmOracle).
constexpr double kSigmas[] = {0.3, 8.0, 300.0};

struct Shape {
  int visible, hidden, classes;
};

std::vector<Shape> Shapes() {
  std::vector<Shape> out;
  for (int v : {1, 3, 5, 7, 40, 80}) {
    for (int h : {1, 4, 20}) {
      for (int z : {2, 10, 20}) out.push_back({v, h, z});
    }
  }
  return out;
}

std::string Describe(const Rbm::Params& p, double sigma) {
  return "V=" + std::to_string(p.visible) + " H=" + std::to_string(p.hidden) +
         " Z=" + std::to_string(p.classes) +
         " cd_steps=" + std::to_string(p.cd_steps) +
         " discriminative_rate=" + std::to_string(p.discriminative_rate) +
         " class_balanced=" + std::to_string(p.class_balanced) +
         " sigma=" + std::to_string(sigma);
}

/// Every *Into pass, ReconstructionError and ClassWeight on fresh
/// inputs. The output buffers arrive oversized and
/// full of stale values, as reused scratch does.
void ExpectPassesMatch(const Rbm& rbm, const NaiveRbmOracle& oracle,
                       const Rbm::Params& p, Rng* rng,
                       const std::string& what) {
  std::vector<double> out(64, -7.0);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> v = DrawFeatures(rng, p.visible);
    std::vector<double> z(static_cast<size_t>(p.classes), 0.0);
    const int y = DrawLabel(rng, p.classes);
    if (y >= 0) z[static_cast<size_t>(y)] = 1.0;
    // Hidden inputs both as probabilities and as sampled binary states.
    std::vector<double> h = oracle.HiddenProbs(v, z);
    if (trial == 1) {
      for (double& hj : h) hj = rng->Bernoulli(hj) ? 1.0 : 0.0;
    }

    rbm.HiddenProbsInto(v, z, &out);
    EXPECT_TRUE(SameBits(out, oracle.HiddenProbs(v, z)))
        << what << " HiddenProbsInto";
    rbm.VisibleProbsInto(h, &out);
    EXPECT_TRUE(SameBits(out, oracle.VisibleProbs(h)))
        << what << " VisibleProbsInto";
    rbm.ClassProbsInto(h, &out);
    EXPECT_TRUE(SameBits(out, oracle.ClassProbs(h)))
        << what << " ClassProbsInto";
    EXPECT_TRUE(SameBits(rbm.ReconstructionError(v, y),
                         oracle.ReconstructionError(v, y)))
        << what << " ReconstructionError y=" << y;
  }
  for (int k = 0; k < p.classes; ++k) {
    EXPECT_TRUE(SameBits(rbm.ClassWeight(k), oracle.ClassWeight(k)))
        << what << " ClassWeight(" << k << ")";
  }
}

TEST(RbmKernelTest, FeedForwardPassesMatchNaiveLoops) {
  for (const Shape& s : Shapes()) {
    for (double sigma : kSigmas) {
      Rbm::Params p;
      p.visible = s.visible;
      p.hidden = s.hidden;
      p.classes = s.classes;
      NaiveRbmOracle oracle(p, 17, sigma);
      const Rbm rbm = oracle.Load();
      const std::string what = Describe(p, sigma);
      EXPECT_TRUE(SameState(rbm, oracle)) << what << " after load";
      Rng rng(29);
      ExpectPassesMatch(rbm, oracle, p, &rng, what);
    }
  }
}

TEST(RbmKernelTest, TrainBatchMatchesNaiveLoops) {
  constexpr int kBatches = 4;
  constexpr int kBatchSize = 12;
  for (const Shape& s : Shapes()) {
    for (int cd_steps : {1, 3}) {
      for (double disc : {0.0, 0.1}) {
        for (bool balanced : {true, false}) {
          for (double sigma : kSigmas) {
            Rbm::Params p;
            p.visible = s.visible;
            p.hidden = s.hidden;
            p.classes = s.classes;
            p.cd_steps = cd_steps;
            p.discriminative_rate = disc;
            p.class_balanced = balanced;
            NaiveRbmOracle oracle(p, 41, sigma);
            Rbm rbm = oracle.Load();
            const std::string what = Describe(p, sigma);
            Rng data(43);
            for (int b = 0; b < kBatches; ++b) {
              std::vector<Instance> batch;
              for (int i = 0; i < kBatchSize; ++i) {
                batch.emplace_back(DrawFeatures(&data, p.visible),
                                   DrawLabel(&data, p.classes));
              }
              rbm.TrainBatch(batch.data(), batch.size());
              oracle.TrainBatch(batch);
              const std::string step = what + " batch " + std::to_string(b);
              EXPECT_TRUE(SameState(rbm, oracle)) << step;
              ExpectPassesMatch(rbm, oracle, p, &data, step);
              if (HasFailure()) return;  // One report per broken config.
            }
          }
        }
      }
    }
  }
}

TEST(RbmKernelTest, SplitBatchMatchesTrainBatchAtEverySplit) {
  // RBM-IM spreads a close's update over the observations after it:
  // BeginBatch, TrainRange over consecutive ranges, EndBatch. Every way of
  // cutting the batch, two ranges split at each point and one instance
  // per range, must give TrainBatch's and the naive loops' state bit for
  // bit, RNG cursor included. ClassWeight reads between the ranges, as a
  // diagnostic read between slices would.
  constexpr int kBatches = 3;
  constexpr size_t kBatchSize = 9;
  for (const Shape& s : {Shape{5, 4, 3}, Shape{40, 20, 10}}) {
    for (int cd_steps : {1, 2}) {
      for (double sigma : {0.3, 300.0}) {
        Rbm::Params p;
        p.visible = s.visible;
        p.hidden = s.hidden;
        p.classes = s.classes;
        p.cd_steps = cd_steps;
        NaiveRbmOracle oracle(p, 59, sigma);
        Rbm whole = oracle.Load();
        Rng data(61);
        for (int b = 0; b < kBatches; ++b) {
          std::vector<Instance> batch;
          for (size_t i = 0; i < kBatchSize; ++i) {
            batch.emplace_back(DrawFeatures(&data, p.visible),
                               DrawLabel(&data, p.classes));
          }
          const std::string before = SaveRbm(whole);
          auto from_before = [&]() {
            Rbm rbm(p, 0);
            io::Reader r(before);
            rbm.LoadState(r);
            return rbm;
          };
          auto read_weights = [&p](const Rbm& rbm) {
            for (int k = 0; k < p.classes; ++k) (void)rbm.ClassWeight(k);
          };
          whole.TrainBatch(batch.data(), batch.size());
          oracle.TrainBatch(batch);
          const std::string what =
              Describe(p, sigma) + " batch " + std::to_string(b);
          ASSERT_TRUE(SameState(whole, oracle)) << what;
          for (size_t split = 0; split <= kBatchSize; ++split) {
            Rbm rbm = from_before();
            rbm.BeginBatch(batch.data(), batch.size());
            rbm.TrainRange(batch.data(), 0, split);
            read_weights(rbm);
            rbm.TrainRange(batch.data(), split, batch.size());
            rbm.EndBatch(batch.size());
            EXPECT_TRUE(SameState(rbm, oracle)) << what << " split " << split;
          }
          Rbm single = from_before();
          single.BeginBatch(batch.data(), batch.size());
          for (size_t i = 0; i < kBatchSize; ++i) {
            single.TrainRange(batch.data(), i, i + 1);
            read_weights(single);
          }
          single.EndBatch(batch.size());
          EXPECT_TRUE(SameState(single, oracle)) << what << " one per range";
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(RbmKernelTest, InfiniteFeatureKeepsTheZeroGradientSkip) {
  // The discriminative step leaves b_j and column j of W alone when
  // g_j == 0. With finite inputs an added 0 * v_i would only flip the sign
  // of a zero, which the batch's CD update erases; with v_i = inf it is a
  // NaN. An infinite feature saturates every hidden unit it feeds to
  // exactly 0 or 1 (g_j == 0), so the skip decides whether those W
  // entries survive.
  for (const Shape& s : {Shape{5, 4, 3}, Shape{40, 20, 10}}) {
    Rbm::Params p;
    p.visible = s.visible;
    p.hidden = s.hidden;
    p.classes = s.classes;
    NaiveRbmOracle oracle(p, 47, 0.3);
    Rbm rbm = oracle.Load();
    Rng data(53);
    std::vector<Instance> batch;
    for (int i = 0; i < 6; ++i) {
      batch.emplace_back(DrawFeatures(&data, p.visible), i % p.classes);
    }
    std::vector<double> x = DrawFeatures(&data, p.visible);
    x[static_cast<size_t>(p.visible) / 2] =
        std::numeric_limits<double>::infinity();
    batch.emplace_back(std::move(x), 0);
    rbm.TrainBatch(batch.data(), batch.size());
    oracle.TrainBatch(batch);
    EXPECT_TRUE(SameState(rbm, oracle)) << Describe(p, 0.3);
  }
}

TEST(RbmKernelTest, ComparisonsCatchTinyPerturbations) {
  // Self-test: moving one weight by 1e-12, far below any tolerance a
  // near-equality check would use, must fail the state comparison and the
  // passes that read the weight, and memcmp must tell -0.0 from +0.0, or
  // the checks above prove nothing.
  Rbm::Params p;
  p.visible = 7;
  p.hidden = 4;
  p.classes = 3;
  NaiveRbmOracle oracle(p, 5, 0.3);
  const Rbm rbm = oracle.Load();
  ASSERT_TRUE(SameState(rbm, oracle));
  oracle.NudgeWeight(5 * p.hidden + 2, 1e-12);  // W_52.
  EXPECT_FALSE(SameState(rbm, oracle));
  const std::vector<double> v(static_cast<size_t>(p.visible), 0.5);
  const std::vector<double> z(static_cast<size_t>(p.classes), 0.0);
  const std::vector<double> h(static_cast<size_t>(p.hidden), 0.5);
  std::vector<double> out;
  rbm.HiddenProbsInto(v, z, &out);
  EXPECT_FALSE(SameBits(out, oracle.HiddenProbs(v, z)));
  rbm.VisibleProbsInto(h, &out);
  EXPECT_FALSE(SameBits(out, oracle.VisibleProbs(h)));
  EXPECT_FALSE(SameBits(-0.0, 0.0));
}

}  // namespace
}  // namespace ccd
