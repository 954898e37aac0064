#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/rbm.h"
#include "io/wire.h"
#include "testing_util.h"
#include "utils/rng.h"

namespace ccd {
namespace {


Rbm::Params SmallParams() {
  Rbm::Params p;
  p.visible = 6;
  p.hidden = 8;
  p.classes = 3;
  p.learning_rate = 0.1;
  return p;
}

/// Two well-separated class prototypes in [0,1]^6 with jitter.
Instance DrawProto(Rng* rng, int y) {
  std::vector<double> x(6);
  for (size_t i = 0; i < 6; ++i) {
    double base = y == 0 ? 0.15 : (y == 1 ? 0.5 : 0.85);
    x[i] = std::clamp(base + rng->Gaussian(0.0, 0.05), 0.0, 1.0);
  }
  return Instance(std::move(x), y);
}

std::vector<Instance> DrawBatch(Rng* rng, int n, double p0 = 0.34,
                                double p1 = 0.33) {
  std::vector<Instance> batch;
  for (int i = 0; i < n; ++i) {
    double u = rng->NextDouble();
    int y = u < p0 ? 0 : (u < p0 + p1 ? 1 : 2);
    batch.push_back(DrawProto(rng, y));
  }
  return batch;
}

TEST(RbmTest, ProbabilityOutputsAreValid) {
  Rbm rbm(SmallParams(), 3);
  std::vector<double> v = {0.1, 0.9, 0.5, 0.3, 0.7, 0.2};
  std::vector<double> z = {1.0, 0.0, 0.0};
  std::vector<double> h, vr, zr;
  rbm.HiddenProbsInto(v, z, &h);
  ASSERT_EQ(h.size(), 8u);
  for (double p : h) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  rbm.VisibleProbsInto(h, &vr);
  ASSERT_EQ(vr.size(), 6u);
  for (double p : vr) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  rbm.ClassProbsInto(h, &zr);
  double sum = 0.0;
  for (double p : zr) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RbmTest, EnergyDecreasesForTrainedPatterns) {
  // After training, the (v, h(v,z), z) configuration of in-distribution
  // data should have lower energy than random noise configurations.
  Rbm rbm(SmallParams(), 3);
  Rng rng(5);
  for (int b = 0; b < 300; ++b) {
    const std::vector<Instance> batch = DrawBatch(&rng, 20);
    rbm.TrainBatch(batch.data(), batch.size());
  }

  double trained_energy = 0.0, noise_energy = 0.0;
  std::vector<double> h, hn;
  for (int i = 0; i < 100; ++i) {
    Instance inst = DrawProto(&rng, rng.UniformInt(0, 2));
    std::vector<double> z(3, 0.0);
    z[static_cast<size_t>(inst.label)] = 1.0;
    rbm.HiddenProbsInto(inst.features, z, &h);
    trained_energy += rbm.Energy(inst.features, h, z);

    std::vector<double> vn(6);
    for (double& v : vn) v = rng.NextDouble();
    std::vector<double> zn(3, 0.0);
    zn[static_cast<size_t>(rng.UniformInt(0, 2))] = 1.0;
    rbm.HiddenProbsInto(vn, zn, &hn);
    noise_energy += rbm.Energy(vn, hn, zn);
  }
  EXPECT_LT(trained_energy, noise_energy);
}

TEST(RbmTest, ReconstructionErrorDropsWithTraining) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(7);
  auto mean_recon = [&rbm](Rng* r) {
    double sum = 0.0;
    for (int i = 0; i < 200; ++i) {
      Instance inst = DrawProto(r, r->UniformInt(0, 2));
      sum += rbm.ReconstructionError(inst.features, inst.label);
    }
    return sum / 200.0;
  };
  double before = mean_recon(&rng);
  for (int b = 0; b < 400; ++b) {
    const std::vector<Instance> batch = DrawBatch(&rng, 20);
    rbm.TrainBatch(batch.data(), batch.size());
  }
  double after = mean_recon(&rng);
  EXPECT_LT(after, before - 0.02);
}

TEST(RbmTest, ReconstructionErrorIsNormalized) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    Instance inst = DrawProto(&rng, rng.UniformInt(0, 2));
    double r = rbm.ReconstructionError(inst.features, inst.label);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(RbmTest, ReconstructionHigherForUnseenConcept) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(11);
  for (int b = 0; b < 400; ++b) {
    const std::vector<Instance> batch = DrawBatch(&rng, 20);
    rbm.TrainBatch(batch.data(), batch.size());
  }
  // In-distribution error.
  double in_dist = 0.0;
  for (int i = 0; i < 200; ++i) {
    Instance inst = DrawProto(&rng, 0);
    in_dist += rbm.ReconstructionError(inst.features, inst.label);
  }
  // Shifted concept: class-0 instances moved to an unseen prototype.
  double shifted = 0.0;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = std::clamp(0.95 + rng.Gaussian(0.0, 0.03), 0.0, 1.0);
    shifted += rbm.ReconstructionError(x, 0);
  }
  EXPECT_GT(shifted / 200.0, in_dist / 200.0 + 0.02);
}

/// The label read-out ReconstructionError scores against: P(z | h(v))
/// with h driven by the visible layer alone (no class input).
std::vector<double> ReadOutClass(const Rbm& rbm,
                                 const std::vector<double>& x) {
  const std::vector<double> no_class(
      static_cast<size_t>(rbm.params().classes), 0.0);
  std::vector<double> h, probs;
  rbm.HiddenProbsInto(x, no_class, &h);
  rbm.ClassProbsInto(h, &probs);
  return probs;
}

TEST(RbmTest, ClassReadoutLearnsPosterior) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(13);
  for (int b = 0; b < 600; ++b) {
    const std::vector<Instance> batch = DrawBatch(&rng, 20);
    rbm.TrainBatch(batch.data(), batch.size());
  }
  int correct = 0;
  for (int i = 0; i < 300; ++i) {
    int y = rng.UniformInt(0, 2);
    Instance inst = DrawProto(&rng, y);
    const std::vector<double> probs = ReadOutClass(rbm, inst.features);
    int arg = 0;
    for (int k = 1; k < 3; ++k) {
      if (probs[static_cast<size_t>(k)] > probs[static_cast<size_t>(arg)]) arg = k;
    }
    correct += arg == y;
  }
  EXPECT_GT(correct, 240);  // >80% on a trivially separable task.
}

TEST(RbmTest, ClassWeightFavorsMinority) {
  Rbm::Params p = SmallParams();
  Rbm rbm(p, 3);
  Rng rng(15);
  // 90:9:1 imbalance.
  for (int b = 0; b < 100; ++b) {
    std::vector<Instance> batch;
    for (int i = 0; i < 20; ++i) {
      double u = rng.NextDouble();
      int y = u < 0.90 ? 0 : (u < 0.99 ? 1 : 2);
      batch.push_back(DrawProto(&rng, y));
    }
    rbm.TrainBatch(batch.data(), batch.size());
  }
  EXPECT_GT(rbm.ClassWeight(2), rbm.ClassWeight(1));
  EXPECT_GT(rbm.ClassWeight(1), rbm.ClassWeight(0));
  EXPECT_GT(rbm.class_count(0), rbm.class_count(2));
}

TEST(RbmTest, BalancedWeightsWhenDisabled) {
  Rbm::Params p = SmallParams();
  p.class_balanced = false;
  Rbm rbm(p, 3);
  Rng rng(17);
  for (int b = 0; b < 50; ++b) {
    const std::vector<Instance> batch = DrawBatch(&rng, 20, 0.9, 0.09);
    rbm.TrainBatch(batch.data(), batch.size());
  }
  EXPECT_DOUBLE_EQ(rbm.ClassWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(rbm.ClassWeight(2), 1.0);
}

TEST(RbmTest, SkewInsensitiveLossHelpsMinorityRepresentation) {
  // Train one balanced-loss and one plain RBM on a 97:2:1 stream; the
  // balanced model must reconstruct the rare class better.
  Rbm::Params balanced = SmallParams();
  balanced.class_balanced = true;
  Rbm::Params plain = SmallParams();
  plain.class_balanced = false;
  Rbm rbm_b(balanced, 3), rbm_p(plain, 3);
  Rng rng(19);
  for (int b = 0; b < 500; ++b) {
    std::vector<Instance> batch;
    for (int i = 0; i < 25; ++i) {
      double u = rng.NextDouble();
      int y = u < 0.97 ? 0 : (u < 0.99 ? 1 : 2);
      batch.push_back(DrawProto(&rng, y));
    }
    rbm_b.TrainBatch(batch.data(), batch.size());
    rbm_p.TrainBatch(batch.data(), batch.size());
  }
  double err_b = 0.0, err_p = 0.0;
  for (int i = 0; i < 300; ++i) {
    Instance inst = DrawProto(&rng, 2);
    err_b += rbm_b.ReconstructionError(inst.features, 2);
    err_p += rbm_p.ReconstructionError(inst.features, 2);
  }
  EXPECT_LT(err_b, err_p);
}

TEST(RbmTest, DeterministicGivenSeed) {
  Rbm a(SmallParams(), 21), b(SmallParams(), 21);
  Rng ra(23), rb(23);
  for (int i = 0; i < 20; ++i) {
    const std::vector<Instance> batch_a = DrawBatch(&ra, 10);
    const std::vector<Instance> batch_b = DrawBatch(&rb, 10);
    a.TrainBatch(batch_a.data(), batch_a.size());
    b.TrainBatch(batch_b.data(), batch_b.size());
  }
  Instance probe = DrawProto(&ra, 1);
  EXPECT_DOUBLE_EQ(a.ReconstructionError(probe.features, 1),
                   b.ReconstructionError(probe.features, 1));
}

TEST(RbmTest, ClassReadoutIsDistribution) {
  Rbm rbm(SmallParams(), 3);
  Rng rng(25);
  for (int b = 0; b < 100; ++b) {
    const std::vector<Instance> batch = DrawBatch(&rng, 20);
    rbm.TrainBatch(batch.data(), batch.size());
  }
  const std::vector<double> probs =
      ReadOutClass(rbm, DrawProto(&rng, 0).features);
  ASSERT_EQ(probs.size(), 3u);
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RbmTest, RejectsOutOfDomainParams) {
  struct Case {
    const char* field;
    std::function<void(Rbm::Params*)> set;
  };
  const Case cases[] = {
      {"rbm.visible", [](Rbm::Params* p) { p->visible = 0; }},
      {"rbm.hidden", [](Rbm::Params* p) { p->hidden = -1; }},
      {"rbm.classes", [](Rbm::Params* p) { p->classes = 0; }},
      // cd_steps = 0 used to reach TrainBatch and read the Gibbs chain's
      // never-filled visible scratch (a SEGV under ASan).
      {"rbm.cd_steps", [](Rbm::Params* p) { p->cd_steps = 0; }},
      {"rbm.cd_steps", [](Rbm::Params* p) { p->cd_steps = -2; }},
      {"rbm.learning_rate", [](Rbm::Params* p) { p->learning_rate = 0.0; }},
      {"rbm.learning_rate", [](Rbm::Params* p) { p->learning_rate = -0.1; }},
      {"rbm.learning_rate", [](Rbm::Params* p) { p->learning_rate = kNan; }},
      {"rbm.learning_rate", [](Rbm::Params* p) { p->learning_rate = kInf; }},
      {"rbm.discriminative_rate",
       [](Rbm::Params* p) { p->discriminative_rate = -0.1; }},
      {"rbm.discriminative_rate",
       [](Rbm::Params* p) { p->discriminative_rate = kNan; }},
      {"rbm.weight_init_sigma",
       [](Rbm::Params* p) { p->weight_init_sigma = -1.0; }},
      // beta = 1 made every class weight (1 - 1^n) / (1 - 1) = NaN.
      {"rbm.beta", [](Rbm::Params* p) { p->beta = 1.0; }},
      {"rbm.beta", [](Rbm::Params* p) { p->beta = 0.0; }},
      {"rbm.beta", [](Rbm::Params* p) { p->beta = kNan; }},
      {"rbm.count_decay", [](Rbm::Params* p) { p->count_decay = 0.0; }},
      {"rbm.count_decay", [](Rbm::Params* p) { p->count_decay = 1.5; }},
      {"rbm.count_decay", [](Rbm::Params* p) { p->count_decay = kNan; }},
  };
  for (const Case& c : cases) {
    Rbm::Params p = SmallParams();
    c.set(&p);
    try {
      Rbm rbm(p, 1);
      ADD_FAILURE() << "expected ParamError for " << c.field;
    } catch (const ParamError& e) {
      EXPECT_EQ(e.field(), c.field);
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  // Domain edges that stay legal.
  Rbm::Params edges = SmallParams();
  edges.count_decay = 1.0;
  edges.discriminative_rate = 0.0;
  edges.weight_init_sigma = 0.0;
  EXPECT_NO_THROW(Rbm(edges, 1));
}

std::string SaveRbm(const Rbm& rbm) {
  io::Writer w;
  rbm.SaveState(w);
  return w.data();
}

// An Rbm's params reach it only through RBM-IM's identity params: an
// image claiming out-of-domain ones fails when the registry builds the
// detector, before a byte of the RBM payload is read.
TEST(RbmTest, LoadStateRejectsOutOfDomainParams) {
  const StreamSchema schema(6, 3);
  test_util::ExpectIdentityParamsRejected(schema, "RBM-IM", "cd_steps=0",
                                          "cd_steps");
  test_util::ExpectIdentityParamsRejected(schema, "RBM-IM", "learning_rate=0",
                                          "learning_rate");
}

// LoadState checks every array against the target's own layers.
TEST(RbmTest, LoadStateRejectsArraysOfOtherLayers) {
  const std::string bytes = SaveRbm(Rbm(SmallParams(), 1));
  Rbm::Params wider = SmallParams();
  wider.hidden += 1;
  Rbm target(wider, 1);
  io::Reader r(bytes);
  try {
    target.LoadState(r);
    ADD_FAILURE() << "expected WireError";
  } catch (const io::WireError& e) {
    EXPECT_EQ(e.field(), "rbm.w") << e.what();
  }
}

}  // namespace
}  // namespace ccd
