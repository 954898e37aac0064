// Coverage of the public component registry and ParamMap: every
// registered name constructs from defaults, Reset() is idempotent,
// typed overrides round-trip, malformed input and unknown names are
// rejected with messages that spell out the valid alternatives.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "api/api.h"
#include "core/rbm_im.h"
#include "utils/rng.h"

namespace ccd {
namespace {

StreamSchema TestSchema() { return StreamSchema(8, 4, "api-test"); }

Instance RandomInstance(Rng* rng, const StreamSchema& schema) {
  std::vector<double> x(static_cast<size_t>(schema.num_features));
  for (double& v : x) v = rng->NextDouble();
  return Instance(std::move(x), rng->UniformInt(0, schema.num_classes - 1));
}

// --- Registry: construction, Reset idempotence, capability flags.

TEST(ApiRegistryTest, EveryDetectorConstructsFromDefaultParams) {
  StreamSchema schema = TestSchema();
  std::vector<std::string> names = api::Detectors().Names();
  ASSERT_GE(names.size(), 12u);
  for (const std::string& name : names) {
    std::unique_ptr<DriftDetector> det =
        api::MakeDetector(name, schema, /*seed=*/7);
    ASSERT_NE(det, nullptr) << name;
    EXPECT_EQ(det->state(), DetectorState::kStable) << name;

    // Drive a few observations so lazily-sized state gets exercised.
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
      Instance inst = RandomInstance(&rng, schema);
      std::vector<double> scores(static_cast<size_t>(schema.num_classes),
                                 1.0 / schema.num_classes);
      det->Observe(inst, rng.UniformInt(0, schema.num_classes - 1), scores);
    }

    // Reset() must be idempotent: twice in a row lands in the same
    // stable, re-usable state.
    det->Reset();
    EXPECT_EQ(det->state(), DetectorState::kStable) << name;
    det->Reset();
    EXPECT_EQ(det->state(), DetectorState::kStable) << name;
  }
}

TEST(ApiRegistryTest, EveryClassifierConstructsFromDefaultParams) {
  StreamSchema schema = TestSchema();
  std::vector<std::string> names = api::Classifiers().Names();
  ASSERT_GE(names.size(), 3u);
  for (const std::string& name : names) {
    std::unique_ptr<OnlineClassifier> clf = api::MakeClassifier(name, schema);
    ASSERT_NE(clf, nullptr) << name;

    Rng rng(5);
    for (int i = 0; i < 100; ++i) clf->Train(RandomInstance(&rng, schema));
    std::vector<double> scores = clf->PredictScores(RandomInstance(&rng, schema));
    ASSERT_EQ(scores.size(), static_cast<size_t>(schema.num_classes)) << name;
    double sum = std::accumulate(scores.begin(), scores.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-6) << name;

    clf->Reset();
    clf->Reset();  // Idempotent.
    std::vector<double> fresh = clf->PredictScores(RandomInstance(&rng, schema));
    EXPECT_EQ(fresh.size(), static_cast<size_t>(schema.num_classes)) << name;
  }
}

TEST(ApiRegistryTest, CapabilityFlagsMatchThePaper) {
  const api::ComponentInfo* rbm = api::Detectors().Find("RBM-IM");
  ASSERT_NE(rbm, nullptr);
  EXPECT_TRUE(rbm->has(api::kTrainable));
  EXPECT_TRUE(rbm->has(api::kExplainsLocalDrift));
  EXPECT_TRUE(rbm->has(api::kNeedsSchema));
  EXPECT_FALSE(rbm->description.empty());

  // The per-class monitors explain local drift; the error-rate detectors
  // cannot (the paper's central distinction).
  for (const char* name : {"PerfSim", "DDM-OCI"}) {
    const api::ComponentInfo* info = api::Detectors().Find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_TRUE(info->has(api::kExplainsLocalDrift)) << name;
    EXPECT_FALSE(info->has(api::kTrainable)) << name;
  }
  for (const char* name : {"WSTD", "RDDM", "FHDDM", "DDM", "ADWIN"}) {
    const api::ComponentInfo* info = api::Detectors().Find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->has(api::kExplainsLocalDrift)) << name;
  }
}

// --- Unknown-name errors (regression for bench::MakeDetector's silent
// --- nullptr): the message must name the offender and list all options.

TEST(ApiRegistryTest, UnknownDetectorErrorListsRegisteredNames) {
  try {
    api::MakeDetector("NoSuchDetector", TestSchema(), 1);
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("NoSuchDetector"), std::string::npos) << msg;
    for (const std::string& name : api::Detectors().Names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
    }
  }
}

TEST(ApiRegistryTest, RequireValidatesWithoutConstructing) {
  EXPECT_NO_THROW(api::Detectors().Require("RBM-IM"));
  EXPECT_NO_THROW(api::Classifiers().Require("cs-ptree"));
  try {
    api::Detectors().Require("RDMM");
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("RDMM"), std::string::npos);
    EXPECT_NE(msg.find("RDDM"), std::string::npos) << msg;
  }
}

TEST(ApiRegistryTest, UnknownClassifierErrorListsRegisteredNames) {
  try {
    api::MakeClassifier("hoeffding-forest", TestSchema());
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("hoeffding-forest"), std::string::npos);
    EXPECT_NE(msg.find("cs-ptree"), std::string::npos) << msg;
    EXPECT_NE(msg.find("naive-bayes"), std::string::npos) << msg;
  }
}

TEST(ApiRegistryTest, UnknownParameterKeyIsRejectedWithComponentName) {
  try {
    api::MakeDetector("FHDDM", TestSchema(), 1, {"windw_size=25"});
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("windw_size"), std::string::npos) << msg;
    EXPECT_NE(msg.find("FHDDM"), std::string::npos) << msg;
  }
}

// --- ParamMap: typed round-trips and malformed input.

TEST(ParamMapTest, TypedOverridesRoundTrip) {
  api::ParamMap p =
      api::ParamMap::Parse("batch_size=75 hidden_ratio=0.25 "
                           "class_balanced=false trigger=granger");
  EXPECT_EQ(p.GetInt("batch_size", 50), 75);
  EXPECT_DOUBLE_EQ(p.GetDouble("hidden_ratio", 0.5), 0.25);
  EXPECT_FALSE(p.GetBool("class_balanced", true));
  EXPECT_EQ(p.GetEnum("trigger", RbmIm::Trigger::kCombined,
                      {{"combined", RbmIm::Trigger::kCombined},
                       {"granger", RbmIm::Trigger::kGranger}}),
            RbmIm::Trigger::kGranger);
  EXPECT_TRUE(p.UnusedKeys().empty());

  // ToString() re-parses to an equivalent map.
  api::ParamMap round = api::ParamMap::Parse(p.ToString());
  EXPECT_EQ(round.ToString(), p.ToString());
  EXPECT_EQ(round.GetInt("batch_size", 0), 75);
}

TEST(ParamMapTest, DefaultsApplyWhenKeyAbsent) {
  api::ParamMap p{"a=1"};
  EXPECT_EQ(p.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(p.GetBool("missing", true));
  EXPECT_EQ(p.GetString("missing", "x"), "x");
}

TEST(ParamMapTest, MalformedEntriesAreRejected) {
  EXPECT_THROW(api::ParamMap{"noequals"}, api::ApiError);
  EXPECT_THROW(api::ParamMap{"=value"}, api::ApiError);
  EXPECT_THROW(api::ParamMap{"key="}, api::ApiError);
  EXPECT_THROW((api::ParamMap{"a=1", "a=2"}), api::ApiError);
  EXPECT_THROW(api::ParamMap::Parse("ok=1 broken"), api::ApiError);
}

TEST(ParamMapTest, TypeMismatchesAreRejected) {
  api::ParamMap p{"n=abc", "x=1.5zzz", "b=maybe"};
  EXPECT_THROW(p.GetInt("n", 0), api::ApiError);
  EXPECT_THROW(p.GetDouble("x", 0.0), api::ApiError);
  EXPECT_THROW(p.GetBool("b", false), api::ApiError);
}

TEST(ParamMapTest, OutOfRangeValuesAreRejectedNotTruncated) {
  api::ParamMap p{"n=4294967296", "m=-99999999999999999999", "x=1e999"};
  EXPECT_THROW(p.GetInt("n", 0), api::ApiError);
  EXPECT_THROW(p.GetInt("m", 0), api::ApiError);
  EXPECT_THROW(p.GetDouble("x", 0.0), api::ApiError);
}

TEST(ApiRegistryTest, ReusedParamMapIsRevalidatedPerComponent) {
  // A key consumed by one factory must not vouch for the next component:
  // batch_size is an RBM-IM knob that FHDDM does not have.
  StreamSchema schema = TestSchema();
  api::ParamMap shared{"batch_size=50"};
  EXPECT_NO_THROW(api::MakeDetector("RBM-IM", schema, 1, shared));
  EXPECT_THROW(api::MakeDetector("FHDDM", schema, 1, shared), api::ApiError);
}

TEST(ParamMapTest, InvalidEnumTokenListsChoices) {
  api::ParamMap p{"trigger=bogus"};
  try {
    p.GetEnum("trigger", RbmIm::Trigger::kCombined,
              {{"combined", RbmIm::Trigger::kCombined},
               {"granger", RbmIm::Trigger::kGranger}});
    FAIL() << "expected ApiError";
  } catch (const api::ApiError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("combined"), std::string::npos) << msg;
    EXPECT_NE(msg.find("granger"), std::string::npos) << msg;
  }
}

// --- End to end: an override string reaches the component's Params.

TEST(ApiRegistryTest, ParamOverridesReachTheComponent) {
  StreamSchema schema = TestSchema();
  std::unique_ptr<DriftDetector> det = api::MakeDetector(
      "RBM-IM", schema, 3, {"hidden_ratio=1.0", "batch_size=25"});
  auto* rbm_im = dynamic_cast<RbmIm*>(det.get());
  ASSERT_NE(rbm_im, nullptr);
  // hidden_ratio=1.0 sizes the hidden layer to the visible layer.
  EXPECT_EQ(rbm_im->rbm().params().hidden, schema.num_features);
}

TEST(ApiRegistryTest, OutOfDomainRbmImParamsAreApiErrors) {
  // RBM-IM:cd_steps=0 used to build fine and then segfault at the first
  // batch boundary; beta=1 built a detector whose every signal was NaN.
  // Both now fail at construction, naming the component and the field.
  StreamSchema schema = TestSchema();
  for (const char* bad : {"cd_steps=0", "beta=1", "batch_size=0",
                          "eval_pool=0", "hidden_ratio=0",
                          "learning_rate=-1"}) {
    const std::string spec = bad;
    const std::string key = spec.substr(0, spec.find('='));
    try {
      api::MakeDetector("RBM-IM", schema, 1, {bad});
      ADD_FAILURE() << "expected ApiError for " << bad;
    } catch (const api::ApiError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("RBM-IM"), std::string::npos) << msg;
      EXPECT_NE(msg.find("rbm_im." + key), std::string::npos) << msg;
    }
  }
}

TEST(ApiRegistryTest, OutOfDomainWstdParamsAreApiErrors) {
  // Each of these used to build a WSTD whose history could never reach
  // two windows, so it silently never fired.
  StreamSchema schema = TestSchema();
  for (const char* bad :
       {"window_size=1", "max_old_instances=-1", "max_old_instances=1",
        "check_interval=0", "drift_significance=0.5",
        "warning_significance=1"}) {
    const std::string spec = bad;
    const std::string key = spec.substr(0, spec.find('='));
    try {
      api::MakeDetector("WSTD", schema, 1, {bad});
      ADD_FAILURE() << "expected ApiError for " << bad;
    } catch (const api::ApiError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("WSTD"), std::string::npos) << msg;
      EXPECT_NE(msg.find("wstd." + key), std::string::npos) << msg;
    }
  }
}

TEST(ApiRegistryTest, RbmImTriggerVariantsConstruct) {
  StreamSchema schema = TestSchema();
  for (const char* trigger : {"combined", "zscore", "adwin", "granger"}) {
    std::unique_ptr<DriftDetector> det = api::MakeDetector(
        "RBM-IM", schema, 3, {std::string("trigger=") + trigger});
    EXPECT_NE(det, nullptr) << trigger;
  }
}

}  // namespace
}  // namespace ccd
