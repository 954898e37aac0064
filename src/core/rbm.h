#ifndef CCD_CORE_RBM_H_
#define CCD_CORE_RBM_H_

#include <string>
#include <vector>

#include "stream/instance.h"
#include "utils/param_error.h"
#include "utils/rng.h"

namespace ccd {
namespace io {
class Writer;
class Reader;
}  // namespace io

/// Skew-insensitive three-layer Restricted Boltzmann Machine (Sec. V-A of
/// the paper): a visible layer v of V unit-interval units, a hidden layer h
/// of H binary units, and a class layer z of Z softmax units, with weights
/// W (V x H) between v and h and U (H x Z) between h and z, plus biases
/// a, b, c (Eq. 8).
///
/// Training is mini-batch Contrastive Divergence with k Gibbs steps
/// (Eq. 16-21). Skew-insensitivity follows the class-balanced loss of Cui
/// et al. (CVPR 2019): each instance's gradient contribution is scaled by
/// (1-beta) / (1-beta^{n_y}) where n_y is the (decayed) number of samples
/// of its class seen so far (Eq. 13) — minority instances weigh more, so
/// the model represents all classes even under extreme imbalance.
///
/// Features fed to the RBM must already be scaled to [0,1] (see
/// MinMaxNormalizer); RBM-IM does this internally.
class Rbm {
 public:
  struct Params {
    int visible = 0;
    int hidden = 0;
    int classes = 0;
    double learning_rate = 0.05;   ///< η in Eq. 17.
    /// Learning rate of the additional discriminative step on (U, c): after
    /// each CD update the class layer is nudged along the gradient of
    /// -log P(y | v) so that the softmax read-out tracks p(y|x). Without
    /// it, generative CD alone leaves the class layer too flat for the
    /// label-reconstruction part of Eq. 26 to carry signal. 0 disables.
    double discriminative_rate = 0.1;
    int cd_steps = 1;              ///< k of CD-k.
    double weight_init_sigma = 0.01;
    bool class_balanced = true;    ///< Enable Eq. 13 weighting (ablatable).
    double beta = 0.999;           ///< Effective-number-of-samples base.
    double count_decay = 0.9999;   ///< Forgetting factor for class counts.
  };

  /// Throws ParamError unless `params` is valid (see ValidateParams).
  Rbm(const Params& params, uint64_t seed);

  /// Throws ParamError naming the first out-of-domain field: layer sizes
  /// and cd_steps must be >= 1, learning_rate finite and > 0,
  /// discriminative_rate and weight_init_sigma finite and >= 0, beta in
  /// (0,1) (beta = 1 makes the Eq. 13 weight 0/0) and count_decay in (0,1].
  static void ValidateParams(const Params& params);

  /// One CD-k update from the mini-batch batch[0, count) (Eq. 15-21).
  /// Instances' features must be in [0,1]; labels in [0, classes). Takes
  /// a pointer range so RBM-IM can train on the used prefix of its
  /// recycled batch buffer. Exactly BeginBatch, TrainRange over
  /// [0, count) and EndBatch; a no-op when count is 0.
  void TrainBatch(const Instance* batch, size_t count);

  /// TrainBatch in three steps, so a caller can spread one update over
  /// time. BeginBatch decays the class counts over all of batch[0, count)
  /// (count >= 1), fixes the class weights and zeroes the gradients;
  /// TrainRange runs the CD-k and discriminative steps of batch[begin,
  /// end); EndBatch applies the lr/count update. Ranges that cover
  /// [0, count) in order give exactly TrainBatch's result: the same
  /// instances, in the same order, with the same RNG draws. Between
  /// BeginBatch and EndBatch the model is mid-update, so nothing may read
  /// it (passes, SaveState) until EndBatch.
  void BeginBatch(const Instance* batch, size_t count);
  void TrainRange(const Instance* batch, size_t begin, size_t end);
  void EndBatch(size_t count);

  /// The feed-forward passes. Each writes into `out` (resized in place,
  /// capacity reused), so a trained, steady-state RBM performs no heap
  /// allocation per evaluated instance; ReconstructionError() and
  /// TrainBatch() route everything through reused scratch the same way.
  /// `out` must not alias `v`, `z`, `h` or `x`.
  ///
  /// Summation order is part of the contract: every output unit starts
  /// from its bias and adds its products in ascending input index (visible
  /// i, then class k). The kernels walk W and U row by row and so work on
  /// many output units at once, but never reassociate one unit's sum, so
  /// results are bit-identical to the textbook per-unit loops
  /// (tests/rbm_kernel_test.cc holds them to that).
  ///
  /// Per-class activation probabilities of h given clamped v and z
  /// (Eq. 10).
  void HiddenProbsInto(const std::vector<double>& v,
                       const std::vector<double>& z,
                       std::vector<double>* out) const;
  /// P(v_i = 1 | h), Eq. 11.
  void VisibleProbsInto(const std::vector<double>& h,
                        std::vector<double>* out) const;
  /// Softmax class activations given h, Eq. 12.
  void ClassProbsInto(const std::vector<double>& h,
                      std::vector<double>* out) const;

  /// Reconstruction error R(S_n^m) of Eq. 26, normalized by sqrt(V + Z)
  /// into [0,1] so downstream change detection sees a bounded signal. The
  /// feature part reconstructs x~ through the label-clamped pass (Eq. 25,
  /// 23); the label part y~ is the class read-out from v alone — clamping y
  /// into the class layer would merely echo the label back and hide
  /// changes of p(y|x) (virtual-vs-real drift would be indistinguishable).
  double ReconstructionError(const std::vector<double>& x, int y) const;

  /// Class-balanced gradient weight of class y (Eq. 13 coefficient,
  /// normalized so the average over observed classes is ~1).
  double ClassWeight(int y) const;

  /// Energy E(v, h, z) of Eq. 8 (used by invariant tests).
  double Energy(const std::vector<double>& v, const std::vector<double>& h,
                const std::vector<double>& z) const;

  const Params& params() const { return params_; }
  /// Decayed observation count of class y.
  double class_count(int y) const { return class_counts_[static_cast<size_t>(y)]; }

  /// Serializes the learned model — every weight and bias, the decayed
  /// class counts, and the RNG cursor (the CD-k Gibbs chain must continue
  /// the exact deviate sequence after a restore). The params are not
  /// written: they are the owner's construction-time configuration.
  void SaveState(io::Writer& writer) const;
  /// Inverse of SaveState() into an Rbm built with the same params.
  /// Throws io::WireError when an array's size disagrees with this
  /// instance's visible x hidden x classes layers.
  void LoadState(io::Reader& reader);

 private:
  double Wc(int i, int j) const {
    return w_[static_cast<size_t>(i) * params_.hidden + j];
  }
  double Uc(int j, int k) const {
    return u_[static_cast<size_t>(j) * params_.classes + k];
  }

  /// pre[j] = b_j + sum_i v_i W_ij: the hidden pre-activation driven by
  /// the visible layer alone, shared by every hidden-layer pass.
  void VisiblePreactivationInto(const std::vector<double>& v,
                                std::vector<double>* pre) const;
  /// act[j] += sum_k z_k U_jk: the class layer's input to hidden unit j.
  void AddClassInput(const std::vector<double>& z,
                     std::vector<double>* act) const;
  /// Class-balanced weight of every class at once; entry y equals
  /// ClassWeight(y).
  void ClassWeightsInto(std::vector<double>* out) const;

  /// Reused feed-forward / CD buffers so the hot paths never allocate.
  /// Pure scratch: every vector is fully rewritten before it is read, so
  /// the buffers carry no model state and never serialize.
  struct Scratch {
    std::vector<double> z, h, h2, xr, zr;             // Feed-forward.
    std::vector<double> z0, h_state, ph0, vk, zk, phk;  // Gibbs chain.
    std::vector<double> hv, py, err, dh, g;           // Discriminative step.
  };
  /// The update in flight between BeginBatch and EndBatch: the gradients
  /// TrainRange accumulates and the class weights BeginBatch fixed. Kept
  /// apart from Scratch so no pass or read-out can overwrite them mid-batch.
  struct Batch {
    std::vector<double> gw, gu, ga, gb, gc;
    std::vector<double> class_weight;
  };

  // ccd:state-skip(params_, construction-time configuration; io::ShardIdentity carries it)
  Params params_;
  Rng rng_;
  std::vector<double> w_;  ///< V x H.
  std::vector<double> u_;  ///< H x Z.
  std::vector<double> a_;  ///< Visible biases.
  std::vector<double> b_;  ///< Hidden biases.
  std::vector<double> c_;  ///< Class biases.
  std::vector<double> class_counts_;
  // ccd:state-skip(scratch_, transient feed-forward/CD scratch fully rewritten before every read; no model state)
  mutable Scratch scratch_;
  // ccd:state-skip(batch_, in-flight update between BeginBatch and EndBatch; RbmIm ends it before SaveState writes; empty at every capture)
  Batch batch_;
};

}  // namespace ccd

#endif  // CCD_CORE_RBM_H_
