#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stream/instance.h"
#include "stream/normalizer.h"
#include "stream/stream.h"

namespace ccd {
namespace {

TEST(SchemaTest, Validity) {
  EXPECT_TRUE(StreamSchema(3, 2).Valid());
  EXPECT_FALSE(StreamSchema(0, 2).Valid());
  EXPECT_FALSE(StreamSchema(3, 1).Valid());
}

TEST(VectorStreamTest, ReplaysInOrder) {
  std::vector<Instance> data = {Instance({0.0}, 0), Instance({1.0}, 1)};
  VectorStream s(StreamSchema(1, 2), data);
  EXPECT_EQ(s.position(), 0u);
  EXPECT_EQ(s.Next().label, 0);
  EXPECT_EQ(s.Next().label, 1);
  EXPECT_EQ(s.position(), 2u);
}

TEST(VectorStreamTest, LoopWrapsAround) {
  std::vector<Instance> data = {Instance({0.0}, 0), Instance({1.0}, 1)};
  VectorStream s(StreamSchema(1, 2), data, /*loop=*/true);
  s.Next();
  s.Next();
  EXPECT_EQ(s.Next().label, 0);
}

TEST(TakeTest, MaterializesN) {
  std::vector<Instance> data = {Instance({0.0}, 0)};
  VectorStream s(StreamSchema(1, 2), data, true);
  auto out = Take(&s, 5);
  EXPECT_EQ(out.size(), 5u);
}

TEST(NormalizerTest, MapsIntoUnitInterval) {
  MinMaxNormalizer n(2);
  n.Observe({0.0, -10.0});
  n.Observe({10.0, 10.0});
  std::vector<double> t;
  n.TransformInto({5.0, 0.0}, &t);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t[0], 0.5, 1e-12);
  EXPECT_NEAR(t[1], 0.5, 1e-12);
}

TEST(NormalizerTest, ClampsOutOfRange) {
  MinMaxNormalizer n(1);
  n.Observe({0.0});
  n.Observe({1.0});
  std::vector<double> t;
  n.TransformInto({5.0}, &t);
  EXPECT_DOUBLE_EQ(t[0], 1.0);
  n.TransformInto({-5.0}, &t);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
}

TEST(NormalizerTest, ConstantFeatureMapsToHalf) {
  MinMaxNormalizer n(1);
  n.Observe({3.0});
  n.Observe({3.0});
  std::vector<double> t;
  n.TransformInto({3.0}, &t);
  EXPECT_DOUBLE_EQ(t[0], 0.5);
}

TEST(NormalizerTest, UnseenReturnsHalf) {
  MinMaxNormalizer n(2);
  // Stale, oversized output: TransformInto must resize and overwrite it.
  std::vector<double> t(5, -1.0);
  n.TransformInto({1.0, 2.0}, &t);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0], 0.5);
  EXPECT_DOUBLE_EQ(t[1], 0.5);
}

TEST(NormalizerTest, RejectsWidthMismatch) {
  // Regression: Observe/TransformInto used to iterate over x.size() while
  // lo_/hi_ were sized by the constructor — an instance wider than
  // declared read and wrote out of bounds.
  MinMaxNormalizer n(2);
  std::vector<double> t;
  EXPECT_THROW(n.Observe({1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(n.TransformInto({1.0}, &t), std::invalid_argument);
  EXPECT_THROW(n.ObserveTransformInto({1.0, 2.0, 3.0}, &t),
               std::invalid_argument);
  // The failed calls must not have corrupted state; matching widths work.
  EXPECT_FALSE(n.seen());
  n.Observe({0.0, 1.0});
  n.Observe({1.0, 0.0});
  n.TransformInto({0.5, 0.5}, &t);
  EXPECT_NEAR(t[0], 0.5, 1e-12);
  EXPECT_NEAR(t[1], 0.5, 1e-12);
}

}  // namespace
}  // namespace ccd
