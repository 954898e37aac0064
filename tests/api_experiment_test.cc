// The fluent Experiment builder: run composition, defaults, overrides,
// and the error paths that replaced the old silent-nullptr factories.

#include <gtest/gtest.h>

#include "api/api.h"

namespace ccd {
namespace {

TEST(ApiExperimentTest, FluentRunProducesResult) {
  // Tiny scale floors at 4000 instances (the registry's documented floor).
  PrequentialResult r = api::Experiment()
                            .Stream("RBF5")
                            .Scale(0.001)
                            .Seed(42)
                            .Detector("FHDDM")
                            .Run();
  EXPECT_EQ(r.instances, 4000u);
  EXPECT_GT(r.mean_pmauc, 0.5);
  EXPECT_GT(r.mean_accuracy, 0.0);
}

TEST(ApiExperimentTest, NoDetectorBaselineRuns) {
  PrequentialResult r =
      api::Experiment().Stream("RBF5").Scale(0.001).NoDetector().Run();
  EXPECT_EQ(r.instances, 4000u);
  EXPECT_EQ(r.drifts, 0u);
}

TEST(ApiExperimentTest, DetectorAndClassifierOverridesApply) {
  PrequentialResult r = api::Experiment()
                            .Stream("RBF5")
                            .Scale(0.001)
                            .Classifier("cs-ptree", {"grace_period=100"})
                            .Detector("RBM-IM", {"batch_size=25",
                                                 "trigger=granger"})
                            .Run();
  EXPECT_EQ(r.instances, 4000u);
  EXPECT_GT(r.mean_pmauc, 0.0);
}

TEST(ApiExperimentTest, AlternativeClassifierRuns) {
  PrequentialResult r = api::Experiment()
                            .Stream("RBF5")
                            .Scale(0.001)
                            .Classifier("naive-bayes")
                            .Detector("DDM")
                            .Run();
  EXPECT_EQ(r.instances, 4000u);
  EXPECT_GT(r.mean_pmauc, 0.5);
}

TEST(ApiExperimentTest, ExplicitPrequentialConfigIsHonored) {
  PrequentialConfig cfg;
  cfg.max_instances = 2000;
  cfg.warmup = 100;
  PrequentialResult r = api::Experiment()
                            .Stream("RBF5")
                            .Scale(0.001)
                            .Detector("FHDDM")
                            .Prequential(cfg)
                            .Run();
  EXPECT_EQ(r.instances, 2000u);
}

TEST(ApiExperimentTest, ZeroMaxInstancesMeansFullStream) {
  PrequentialConfig cfg;
  cfg.max_instances = 0;
  PrequentialResult r =
      api::Experiment().Stream("RBF5").Scale(0.001).Prequential(cfg).Run();
  EXPECT_EQ(r.instances, 4000u);
}

TEST(ApiExperimentTest, BuildExposesComponentsForCustomLoops) {
  api::Experiment::Built b = api::Experiment()
                                 .Stream("RBF10")
                                 .Scale(0.001)
                                 .Detector("DDM-OCI")
                                 .Build();
  ASSERT_NE(b.stream.stream, nullptr);
  ASSERT_NE(b.classifier, nullptr);
  ASSERT_NE(b.detector, nullptr);
  EXPECT_EQ(b.detector->name(), "DDM-OCI");
  EXPECT_EQ(b.stream.stream->schema().num_classes, 10);
  EXPECT_EQ(b.config.max_instances, b.stream.length);
}

TEST(ApiExperimentTest, UnknownStreamErrorListsRegisteredStreams) {
  try {
    api::Experiment().Stream("RBF7");
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("RBF7"), std::string::npos);
    EXPECT_NE(msg.find("RBF5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Electricity"), std::string::npos) << msg;
  }
}

TEST(ApiExperimentTest, UnknownDetectorSurfacesAtBuild) {
  api::Experiment e;
  e.Stream("RBF5").Scale(0.001).Detector("WSTD2");
  EXPECT_THROW(e.Run(), api::ApiError);
}

TEST(ApiExperimentTest, MissingStreamIsAnError) {
  EXPECT_THROW(api::Experiment().Run(), api::ApiError);
}

TEST(ApiExperimentTest, DegenerateProtocolRejectedAtBuild) {
  // Companion to RunPrequential's own validation: the builder reports a
  // degenerate protocol as an ApiError at Build(), where it was composed.
  PrequentialConfig bad;
  bad.eval_interval = 0;
  api::Experiment e;
  e.Stream("RBF5").Scale(0.001).Prequential(bad);
  EXPECT_THROW(e.Build(), api::ApiError);

  bad = PrequentialConfig{};
  bad.metric_window = -1;
  api::Experiment e2;
  e2.Stream("RBF5").Scale(0.001).Prequential(bad);
  EXPECT_THROW(e2.Run(), api::ApiError);
}

TEST(ApiExperimentTest, UnbuildableStreamRejectedAtBuild) {
  // BuildStream's std::invalid_argument becomes an ApiError at Build(),
  // naming the field, as a degenerate protocol does.
  StreamSpec broken = *FindStreamSpec("RBF5");
  broken.num_classes = -1;
  api::Experiment e;
  e.Stream(broken).Scale(0.001);
  try {
    e.Build();
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& err) {
    EXPECT_NE(std::string(err.what()).find("num_classes"), std::string::npos)
        << err.what();
  }
  EXPECT_THROW(api::Experiment().Stream("RBF5").Scale(-1.0).Run(),
               api::ApiError);
}

TEST(ApiExperimentTest, MatchesDirectPipelineComposition) {
  // The builder is sugar, not a different pipeline: the same (spec,
  // options, components) must reproduce the same result numbers.
  const StreamSpec* spec = FindStreamSpec("RBF5");
  ASSERT_NE(spec, nullptr);
  BuildOptions options;
  options.scale = 0.001;
  options.seed = 7;

  BuiltStream built = BuildStream(*spec, options);
  auto clf = api::MakeClassifier("cs-ptree", built.stream->schema());
  auto det = api::MakeDetector("FHDDM", built.stream->schema(), options.seed);
  PrequentialConfig cfg;
  cfg.max_instances = built.length;
  cfg.metric_window = 1000;
  cfg.eval_interval = 250;
  cfg.warmup = 500;
  PrequentialResult direct =
      RunPrequential(built.stream.get(), clf.get(), det.get(), cfg);

  PrequentialResult fluent = api::Experiment()
                                 .Stream(*spec)
                                 .Options(options)
                                 .Detector("FHDDM")
                                 .Run();
  EXPECT_DOUBLE_EQ(fluent.mean_pmauc, direct.mean_pmauc);
  EXPECT_DOUBLE_EQ(fluent.mean_pmgm, direct.mean_pmgm);
  EXPECT_EQ(fluent.instances, direct.instances);
  EXPECT_EQ(fluent.drifts, direct.drifts);
}

}  // namespace
}  // namespace ccd
