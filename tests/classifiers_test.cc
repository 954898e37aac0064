#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "classifiers/cs_perceptron_tree.h"
#include "classifiers/naive_bayes.h"
#include "classifiers/perceptron.h"
#include "cs_ptree_oracle.h"
#include "generators/rbf.h"
#include "io/codecs.h"
#include "io/wire.h"
#include "testing_util.h"
#include "utils/rng.h"

namespace ccd {
namespace {

/// Simple two-Gaussian binary task: class 0 around 0.25, class 1 around
/// 0.75 in every dimension.
Instance DrawGaussianTask(Rng* rng, int d, double sep = 0.25) {
  int y = rng->Bernoulli(0.5) ? 1 : 0;
  std::vector<double> x(static_cast<size_t>(d));
  double center = y == 0 ? 0.5 - sep : 0.5 + sep;
  for (double& v : x) v = rng->Gaussian(center, 0.08);
  return Instance(std::move(x), y);
}

using ClassifierFactory =
    std::function<std::unique_ptr<OnlineClassifier>(const StreamSchema&)>;

struct NamedClassifier {
  std::string name;
  ClassifierFactory make;
};

class ClassifierSuite : public ::testing::TestWithParam<NamedClassifier> {};

TEST_P(ClassifierSuite, LearnsSeparableTask) {
  StreamSchema schema(4, 2);
  auto clf = GetParam().make(schema);
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) clf->Train(DrawGaussianTask(&rng, 4));
  int correct = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    Instance inst = DrawGaussianTask(&rng, 4);
    if (clf->Predict(inst) == inst.label) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(0.9 * n)) << GetParam().name;
}

TEST_P(ClassifierSuite, ScoresAreNormalizedProbabilities) {
  StreamSchema schema(3, 4);
  auto clf = GetParam().make(schema);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    clf->Train(Instance(x, rng.UniformInt(0, 3)));
  }
  Instance probe({0.5, 0.5, 0.5}, -1);
  auto scores = clf->PredictScores(probe);
  ASSERT_EQ(scores.size(), 4u) << GetParam().name;
  double sum = 0.0;
  for (double s : scores) {
    EXPECT_GE(s, 0.0) << GetParam().name;
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6) << GetParam().name;
}

TEST_P(ClassifierSuite, ResetForgetsEverything) {
  StreamSchema schema(4, 2);
  auto clf = GetParam().make(schema);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) clf->Train(DrawGaussianTask(&rng, 4));
  clf->Reset();
  // After reset the scores must be (near) uninformative on both classes.
  Instance a = DrawGaussianTask(&rng, 4);
  auto scores = clf->PredictScores(a);
  EXPECT_NEAR(scores[0], scores[1], 0.2) << GetParam().name;
}

TEST_P(ClassifierSuite, CloneIsFreshAndIndependent) {
  StreamSchema schema(4, 2);
  auto clf = GetParam().make(schema);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) clf->Train(DrawGaussianTask(&rng, 4));
  auto clone = clf->Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->schema().num_classes, 2);
  // The clone is untrained: training it must not affect the original.
  Instance probe = DrawGaussianTask(&rng, 4);
  auto before = clf->PredictScores(probe);
  for (int i = 0; i < 100; ++i) clone->Train(DrawGaussianTask(&rng, 4));
  auto after = clf->PredictScores(probe);
  EXPECT_EQ(before, after) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllClassifiers, ClassifierSuite,
    ::testing::Values(
        NamedClassifier{"SoftmaxPerceptron",
                        [](const StreamSchema& s) {
                          return std::make_unique<SoftmaxPerceptron>(s);
                        }},
        NamedClassifier{"GaussianNB",
                        [](const StreamSchema& s) {
                          return std::make_unique<GaussianNaiveBayes>(s);
                        }},
        NamedClassifier{"CSPerceptronTree",
                        [](const StreamSchema& s) {
                          return std::make_unique<CsPerceptronTree>(s);
                        }}),
    [](const ::testing::TestParamInfo<NamedClassifier>& info) {
      return info.param.name;
    });

// ------------------------------------------------------ cost-sensitivity
TEST(SoftmaxPerceptronTest, CostWeightBoostsMinority) {
  StreamSchema schema(2, 2);
  SoftmaxPerceptron clf(schema);
  Rng rng(3);
  // 95:5 imbalance.
  for (int i = 0; i < 2000; ++i) {
    int y = rng.Bernoulli(0.05) ? 1 : 0;
    clf.Train(Instance({rng.NextDouble(), rng.NextDouble()}, y));
  }
  EXPECT_GT(clf.CostWeight(1), clf.CostWeight(0));
  EXPECT_GE(clf.CostWeight(1), 2.0);
}

TEST(SoftmaxPerceptronTest, CostSensitiveImprovesMinorityRecall) {
  StreamSchema schema(2, 2);
  SoftmaxPerceptron::Params cs;
  cs.cost_sensitive = true;
  SoftmaxPerceptron::Params plain;
  plain.cost_sensitive = false;
  SoftmaxPerceptron with_cs(schema, cs), without(schema, plain);

  auto draw = [](Rng* rng) {
    // Overlapping classes, 97:3 imbalance: cost-blind learners collapse to
    // the majority.
    int y = rng->Bernoulli(0.03) ? 1 : 0;
    double center = y == 0 ? 0.45 : 0.55;
    return Instance({rng->Gaussian(center, 0.08), rng->Gaussian(center, 0.08)},
                    y);
  };
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    Instance inst = draw(&rng);
    with_cs.Train(inst);
    without.Train(inst);
  }
  int rec_cs = 0, rec_plain = 0, n1 = 0;
  for (int i = 0; i < 20000; ++i) {
    Instance inst = draw(&rng);
    if (inst.label != 1) continue;
    ++n1;
    rec_cs += with_cs.Predict(inst) == 1;
    rec_plain += without.Predict(inst) == 1;
  }
  ASSERT_GT(n1, 100);
  EXPECT_GT(static_cast<double>(rec_cs) / n1,
            static_cast<double>(rec_plain) / n1 + 0.1);
}

// ----------------------------------------------------------------- NB
TEST(GaussianNaiveBayesTest, UsesFeatureLikelihood) {
  StreamSchema schema(1, 2);
  GaussianNaiveBayes nb(schema);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    nb.Train(Instance({rng.Gaussian(0.2, 0.05)}, 0));
    nb.Train(Instance({rng.Gaussian(0.8, 0.05)}, 1));
  }
  EXPECT_EQ(nb.Predict(Instance({0.15}, -1)), 0);
  EXPECT_EQ(nb.Predict(Instance({0.85}, -1)), 1);
  auto s = nb.PredictScores(Instance({0.2}, -1));
  EXPECT_GT(s[0], 0.95);
}

/// Gaussian naive Bayes as it was before the likelihood cache: Train and
/// the scoring loop kept verbatim, recomputing each variance, the floor
/// and log(2π·var) on every call. The spec GaussianNaiveBayes's cached
/// PredictScoresInto must match bit for bit.
struct OracleNaiveBayes {
  explicit OracleNaiveBayes(const StreamSchema& s) : schema(s) { Reset(); }

  void Reset() {
    stats.assign(static_cast<size_t>(schema.num_classes),
                 std::vector<Welford>(static_cast<size_t>(schema.num_features)));
    class_counts.assign(static_cast<size_t>(schema.num_classes), 0.0);
    total = 0.0;
  }

  void Train(const Instance& instance) {
    int y = instance.label;
    if (y < 0 || y >= schema.num_classes) return;
    auto& row = stats[static_cast<size_t>(y)];
    size_t d = std::min(instance.features.size(), row.size());
    for (size_t i = 0; i < d; ++i) row[i].Add(instance.features[i]);
    class_counts[static_cast<size_t>(y)] += 1.0;
    total += 1.0;
  }

  void PredictScoresInto(const Instance& instance,
                         std::vector<double>& out) const {
    const size_t k = stats.size();
    out.assign(k, 0.0);
    std::vector<double>& log_probs = out;
    double max_lp = -1e300;
    for (size_t c = 0; c < k; ++c) {
      double lp = std::log((class_counts[c] + 1.0) /
                           (total + static_cast<double>(k)));
      const auto& row = stats[c];
      size_t d = std::min(instance.features.size(), row.size());
      for (size_t i = 0; i < d; ++i) {
        if (row[i].count() < 2) continue;
        double var = row[i].Variance() + 1e-4;
        double diff = instance.features[i] - row[i].mean();
        lp += -0.5 * (std::log(2.0 * M_PI * var) + diff * diff / var);
      }
      log_probs[c] = lp;
      if (lp > max_lp) max_lp = lp;
    }
    double totalp = 0.0;
    for (double& lp : log_probs) {
      lp = std::exp(lp - max_lp);
      totalp += lp;
    }
    for (double& lp : log_probs) lp /= totalp;
  }

  StreamSchema schema;
  std::vector<std::vector<Welford>> stats;
  std::vector<double> class_counts;
  double total = 0.0;
};

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// A skewed K-class stream for the NB oracle: class means differ per
/// feature. Above K = 2 the last class never occurs and the one before it
/// occurs once, so both stay below the two samples a likelihood needs.
/// Some rows are shorter or longer than the schema, class 1 repeats a
/// value (zero variance, so the floor decides), and a few rows carry no
/// usable label.
Instance DrawNbOracleRow(Rng* rng, int k, int d, int i) {
  int y = rng->UniformInt(0, k - 1);
  if (i % 7 == 0) y = 0;  // Majority class.
  if (k > 2 && y >= k - 2) y = 0;
  if (k > 2 && i == 333) y = k - 2;
  if (i % 97 == 5) y = -1;  // Unlabeled: Train must ignore it.
  int width = d;
  if (i % 11 == 3) width = d - 2;
  if (i % 13 == 4) width = d + 1;
  std::vector<double> x(static_cast<size_t>(width));
  for (int f = 0; f < width; ++f) {
    double center = 0.1 * ((y < 0 ? 0 : y) % 5) + 0.05 * f;
    x[static_cast<size_t>(f)] = rng->Gaussian(center, 0.2);
  }
  if (width > 1 && y == 1) x[1] = 0.5;
  return Instance(std::move(x), y);
}

TEST(GaussianNaiveBayesTest, CachedLikelihoodsMatchRecomputingOracle) {
  for (int k : {2, 5, 20, 57}) {
    const int d = 6;
    const StreamSchema schema(d, k);
    GaussianNaiveBayes nb(schema);
    OracleNaiveBayes oracle(schema);
    Rng rng(static_cast<uint64_t>(100 + k));
    std::vector<double> got, want;
    for (int i = 0; i < 3000; ++i) {
      if (i == 1000) {  // Mid-stream reset: the cache must forget too.
        nb.Reset();
        oracle.Reset();
      }
      if (i == 1700 || i == 2400) {
        // Serialize mid-stream into a fresh model: LoadState must rebuild
        // the cache from the loaded statistics.
        io::Writer w;
        nb.SaveState(w);
        GaussianNaiveBayes loaded(schema);
        io::Reader r(w.data());
        loaded.LoadState(r);
        ASSERT_TRUE(r.AtEnd());
        io::Writer again;
        loaded.SaveState(again);
        ASSERT_EQ(again.data(), w.data()) << "K=" << k;
        nb = std::move(loaded);
      }
      const Instance row = DrawNbOracleRow(&rng, k, d, i);
      nb.PredictScoresInto(row, got);
      oracle.PredictScoresInto(row, want);
      ASSERT_TRUE(SameBytes(got, want)) << "K=" << k << " instance " << i;
      nb.Train(row);
      oracle.Train(row);
    }
    // A probe after the last push, with K-1 never trained.
    const Instance probe(std::vector<double>(static_cast<size_t>(d), 0.3), -1);
    nb.PredictScoresInto(probe, got);
    oracle.PredictScoresInto(probe, want);
    EXPECT_TRUE(SameBytes(got, want)) << "K=" << k;
  }
}

// ----------------------------------------------------------------- tree
TEST(CsPerceptronTreeTest, SplitsOnAxisAlignedStructure) {
  StreamSchema schema(2, 2);  // Binary band task below.
  CsPerceptronTree::Params p;
  p.grace_period = 100;
  p.max_depth = 6;
  CsPerceptronTree tree(schema, p);
  Rng rng(3);
  // Three well-separated bands along feature 0: the Gaussian class models
  // see distinct means, so the tree must split (and beat a single leaf).
  auto draw = [&rng]() {
    double x = rng.NextDouble(), y = rng.NextDouble();
    int label = x < 0.33 ? 0 : 1;
    return Instance({x, y}, label);
  };
  for (int i = 0; i < 20000; ++i) tree.Train(draw());
  EXPECT_GT(tree.num_leaves(), 1) << "tree never split";
  int correct = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Instance inst = draw();
    if (tree.Predict(inst) == inst.label) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(0.9 * n));
}

TEST(CsPerceptronTreeTest, RespectsDepthAndLeafCaps) {
  StreamSchema schema(4, 3);
  CsPerceptronTree::Params p;
  p.grace_period = 50;
  p.max_depth = 3;
  p.max_leaves = 6;
  CsPerceptronTree tree(schema, p);
  Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    std::vector<double> x = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble(), rng.NextDouble()};
    int label = static_cast<int>(x[0] * 2.9999) % 3;
    tree.Train(Instance(x, label));
  }
  EXPECT_LE(tree.depth(), 3);
  EXPECT_LE(tree.num_leaves(), 6);
}

// The hoisted MaybeSplit against the per-candidate SplitGain scan it
// replaced (tests/cs_ptree_oracle.h): both trees see one stream, and their
// serialized states must stay byte-equal. The params make trees split
// often and run into their caps; at the defaults (grace 200, delta 1e-6)
// most trees never leave the root and the comparison would prove little.
struct SplitOracleCase {
  int num_features;
  int num_classes;
  CsPerceptronTree::Params params;
};

TEST(CsPerceptronTreeTest, HoistedSplitScanMatchesSplitGainOracle) {
  auto params = [](int grace, double delta, int depth, int leaves) {
    CsPerceptronTree::Params p;
    p.grace_period = grace;
    p.split_confidence = delta;
    p.max_depth = depth;
    p.max_leaves = leaves;
    return p;
  };
  const std::vector<SplitOracleCase> cases = {
      {2, 2, params(20, 0.2, 4, 8)},
      {8, 5, params(30, 0.5, 3, 6)},
      {6, 20, params(40, 0.9, 4, 12)},
      {4, 3, params(25, 0.05, 4, 64)},
  };
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const SplitOracleCase& tc = cases[ci];
    RbfConcept::Options o;
    o.num_features = tc.num_features;
    o.num_classes = tc.num_classes;
    RbfConcept gen(o, 11 + ci);
    CsPerceptronTree tree(gen.schema(), tc.params);
    oracle::SplitGainTree reference(gen.schema(), tc.params);
    Rng rng(21 + ci);
    for (int i = 1; i <= 6000; ++i) {
      Instance inst = test_util::Draw(gen, &rng);
      if (i % 5 == 0) inst.label = 0;  // Skew: class 0 dominates.
      // Classes 1 and 2 nearly constant and 5e-3 apart on feature 0: their
      // sds sit under the 1e-3 floor, so the floor decides where their
      // mass goes at each other's means.
      if (inst.label == 1 || inst.label == 2) {
        inst.features[0] = 0.25 + 0.005 * inst.label + 0.0005 * (i % 3);
      }
      tree.Train(inst);
      reference.Train(inst);
      if (i % 50 == 0) {
        io::Writer got, want;
        tree.SaveState(got);
        reference.SaveState(want);
        ASSERT_EQ(got.data(), want.data())
            << "case " << ci << " diverged by instance " << i;
      }
    }
    EXPECT_GT(tree.num_leaves(), 1) << "case " << ci << " never split";
    EXPECT_TRUE(tree.num_leaves() == tc.params.max_leaves ||
                tree.depth() == tc.params.max_depth)
        << "case " << ci << " reached neither cap: " << tree.num_leaves()
        << " leaves, depth " << tree.depth();
  }
}

/// One node of a hand-written cs-ptree image.
struct NodeImage {
  int64_t feature;
  int64_t left = -1, right = -1;
  bool has_leaf = true;
  bool has_perceptron = true;
  int perceptron_classes = 0;  ///< 0: the tree's class count.
};

/// A CSPerceptronTree section with the given nodes; every leaf record is
/// empty and its perceptron untrained.
std::string TreeImage(const StreamSchema& schema,
                      const std::vector<NodeImage>& nodes) {
  io::Writer w;
  w.BeginSection("CSPerceptronTree");
  w.I64(static_cast<int64_t>(nodes.size() + 1) / 2);
  w.U32(static_cast<uint32_t>(nodes.size()));
  for (const NodeImage& n : nodes) {
    w.I64(n.feature);
    w.F64(0.5);
    w.I64(n.left);
    w.I64(n.right);
    w.I64(0);
    w.Bool(n.has_leaf);
    if (!n.has_leaf) continue;
    w.F64Array(std::vector<double>(static_cast<size_t>(schema.num_classes)));
    w.U32(static_cast<uint32_t>(schema.num_features));
    for (int f = 0; f < schema.num_features; ++f) {
      w.U32(static_cast<uint32_t>(schema.num_classes));
      for (int c = 0; c < schema.num_classes; ++c) {
        io::WriteWelford(w, Welford());
      }
    }
    w.Bool(n.has_perceptron);
    if (n.has_perceptron) {
      StreamSchema own = schema;
      if (n.perceptron_classes > 0) own.num_classes = n.perceptron_classes;
      SoftmaxPerceptron(own).SaveState(w);
    }
    w.I64(0);
    w.F64(0.0);
  }
  w.EndSection();
  return w.data();
}

/// The field of the WireError LoadState throws on `image`, or "" when it
/// loads.
std::string TreeLoadError(const StreamSchema& schema, const std::string& image) {
  CsPerceptronTree tree(schema);
  io::Reader r(image);
  try {
    tree.LoadState(r);
  } catch (const io::WireError& e) {
    return e.field();
  }
  return "";
}

TEST(CsPerceptronTreeTest, LoadStateAcceptsWalkableGraphs) {
  const StreamSchema schema(3, 2);
  const std::string root = TreeImage(schema, {{-1}});
  ASSERT_EQ(TreeLoadError(schema, root), "");
  // Root split on feature 2 into two leaves, then the left leaf split on
  // feature 0: children always come after their parent.
  const std::string deep = TreeImage(
      schema, {{2, 1, 2, false}, {0, 3, 4, false}, {-1}, {-1}, {-1}});
  ASSERT_EQ(TreeLoadError(schema, deep), "");
  CsPerceptronTree tree(schema);
  io::Reader r(deep);
  tree.LoadState(r);
  for (double x : {0.1, 0.9}) {
    EXPECT_EQ(tree.PredictScores(Instance({x, x, x}, -1)).size(), 2u);
  }
}

TEST(CsPerceptronTreeTest, LoadStateRejectsUnwalkableGraphs) {
  const StreamSchema schema(3, 2);
  // An internal node whose child is itself: Route would never return.
  EXPECT_EQ(TreeLoadError(schema, TreeImage(schema, {{0, 0, 0, false}})),
            "tree.node.left");
  EXPECT_EQ(TreeLoadError(schema,
                          TreeImage(schema, {{0, 1, 0, false}, {-1}})),
            "tree.node.right");
  // A child pointing back up the tree: a cycle through the root.
  EXPECT_EQ(TreeLoadError(schema, TreeImage(schema, {{0, 1, 2, false},
                                                     {1, 0, 2, false},
                                                     {-1}})),
            "tree.node.left");
  // A child past the node table.
  EXPECT_EQ(TreeLoadError(schema,
                          TreeImage(schema, {{0, 1, 2, false}, {-1}})),
            "tree.node.right");
  // A leaf without its leaf record: Route would hand out a null leaf.
  EXPECT_EQ(TreeLoadError(schema, TreeImage(schema, {{-1, -1, -1, false}})),
            "tree.node.has_leaf");
  // A leaf record without a perceptron: scoring would dereference null.
  EXPECT_EQ(
      TreeLoadError(schema, TreeImage(schema, {{-1, -1, -1, true, false}})),
      "tree.leaf.has_perceptron");
  // A perceptron scoring a different class count than the tree: the leaf
  // perceptron is built from the tree's schema and refuses the rows.
  EXPECT_EQ(TreeLoadError(schema,
                          TreeImage(schema, {{-1, -1, -1, true, true, 3}})),
            "perceptron.weights");
  // Split features outside [-1, num_features).
  EXPECT_EQ(TreeLoadError(schema, TreeImage(schema, {{-2}})),
            "tree.node.feature");
  EXPECT_EQ(TreeLoadError(schema,
                          TreeImage(schema, {{3, 1, 2, false}, {-1}, {-1}})),
            "tree.node.feature");
}

TEST(CsPerceptronTreeTest, MulticlassOnRbfConcept) {
  RbfConcept::Options o;
  o.num_features = 8;
  o.num_classes = 5;
  RbfConcept gen(o, 3);
  CsPerceptronTree tree(gen.schema());
  Rng rng(7);
  for (int i = 0; i < 8000; ++i) tree.Train(test_util::Draw(gen, &rng));
  int correct = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Instance inst = test_util::Draw(gen, &rng);
    if (tree.Predict(inst) == inst.label) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(0.75 * n));
}

}  // namespace
}  // namespace ccd
