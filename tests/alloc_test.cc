// Zero-allocation hot-path regression tests: a counting global operator
// new proves that a warmed-up engine's steady-state push path — Feed,
// FeedBatch, the Predict/Label serving cycle, and the batch serving
// forms — never touches the heap, and neither do ShardedMonitor's routed
// pushes (Feed, Label, FeedBatch, LabelBatch), nor the cs-ptree's split
// checks. Every scratch surface involved (classifier score buffers, the
// split scan's count rows, the metric window's recycled entries, the
// pending-prediction ring, RBM-IM's recycled mini-batch slots) is pinned
// by these counts: a reintroduced per-push allocation fails the suite
// instead of quietly costing throughput.
//
// Under sanitizers the counting allocator is compiled out and the tests
// skip — ASan/TSan interpose their own allocator and the counts would
// measure the tool, not the code.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/component_registry.h"
#include "api/sharded_monitor.h"
#include "classifiers/cs_perceptron_tree.h"
#include "eval/engine.h"
#include "eval/prequential.h"
#include "generators/registry.h"
#include "stream/stream.h"
#include "testing_util.h"
#include "utils/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CCD_ALLOC_TEST_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CCD_ALLOC_TEST_DISABLED 1
#endif
#endif

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

#ifndef CCD_ALLOC_TEST_DISABLED

namespace {
// The deletes below release through this out-of-line call. Inlined into a
// caller, a plain std::free of a pointer that came from a new-expression
// trips GCC's -Wmismatched-new-delete (an error under CCD_WERROR), although
// the replaced operator new allocates with std::malloc; whether GCC
// inlines depends on the size of the whole translation unit.
[[gnu::noinline]] void FreeAllocation(void* p) noexcept { std::free(p); }
}  // namespace

// Counting global allocator: every path that can reach the heap from the
// measured regions goes through one of these. All plain forms are
// replaced together (new/new[]/nothrow and their deletes) so every
// allocation pairs with a matching deallocation function.

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { FreeAllocation(p); }
void operator delete[](void* p) noexcept { FreeAllocation(p); }
void operator delete(void* p, std::size_t) noexcept { FreeAllocation(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeAllocation(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeAllocation(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeAllocation(p);
}

#endif  // CCD_ALLOC_TEST_DISABLED

namespace ccd {
namespace {

using test_util::MakeRbfDriftStream;

/// Allocations performed by `fn` (single-threaded tests: the delta is
/// exactly the calls the region made).
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  fn();
  return g_allocation_count.load(std::memory_order_relaxed) - before;
}

/// Protocol for the steady-state legs: small window (fills fast), warmup
/// short, and an eval_interval past any run length here — periodic
/// sampling appends to pmauc_series, which is amortized-allocating by
/// design and not part of the per-push contract.
PrequentialConfig SteadyConfig() {
  PrequentialConfig config;
  config.metric_window = 256;
  config.eval_interval = 1 << 30;
  config.warmup = 100;
  config.timing = false;
  return config;
}

/// Stationary imbalanced stream data (drift far beyond the run), fully
/// materialized before measurement so generation cost never pollutes the
/// counts.
std::vector<Instance> MakeData(size_t count, uint64_t seed) {
  auto stream = MakeRbfDriftStream(/*drift_at=*/1u << 30, seed);
  std::vector<Instance> data;
  data.reserve(count);
  for (size_t i = 0; i < count; ++i) data.push_back(stream->Next());
  return data;
}

constexpr size_t kWarm = 1500;    ///< Past warmup + window fill + buffer growth.
constexpr size_t kMeasure = 500;  ///< Steady-state pushes counted.

/// Feed leg: warm an engine past every growth phase, then demand zero
/// allocations across the next kMeasure pushes.
void ExpectFeedAllocationFree(const std::string& classifier,
                              const std::string& detector) {
  const std::vector<Instance> data = MakeData(kWarm + kMeasure, 11);
  test_util::OwnedEngine owned(StreamSchema(6, 3), classifier, detector, 42,
                               SteadyConfig(), 1024);
  MonitorEngine& engine = owned.engine;
  for (size_t i = 0; i < kWarm; ++i) engine.Feed(data[i]);

  const uint64_t allocations = AllocationsDuring([&] {
    for (size_t i = kWarm; i < data.size(); ++i) engine.Feed(data[i]);
  });
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations across " << kMeasure
      << " steady-state Feed() calls (classifier=" << classifier
      << ", detector=" << (detector.empty() ? "none" : detector) << ")";
}

#ifdef CCD_ALLOC_TEST_DISABLED
#define CCD_ALLOC_GUARD() \
  GTEST_SKIP() << "counting allocator disabled under sanitizers"
#else
#define CCD_ALLOC_GUARD() (void)0
#endif

TEST(AllocTest, FeedIsAllocationFreeNaiveBayes) {
  CCD_ALLOC_GUARD();
  ExpectFeedAllocationFree("naive-bayes", "");
}

TEST(AllocTest, FeedIsAllocationFreePerceptron) {
  CCD_ALLOC_GUARD();
  ExpectFeedAllocationFree("perceptron", "");
}

TEST(AllocTest, FeedIsAllocationFreeWithDdm) {
  CCD_ALLOC_GUARD();
  ExpectFeedAllocationFree("naive-bayes", "DDM");
}

TEST(AllocTest, FeedIsAllocationFreeWithRbmIm) {
  CCD_ALLOC_GUARD();
  // RBM-IM buffers each push into a recycled pending slot. The push that
  // closes a batch (every batch_size = 50) sums the monitor pass's errors
  // and runs the decision, then swaps the batch into a second recycled
  // buffer; the first pushes of the next batch each train one slice of
  // it, in reused gradient and Gibbs-chain scratch, and every seventh push
  // after that computes the reconstruction errors of the rows that
  // arrived since into an error cache sized at construction. Both buffers
  // and the scratch are warm after kWarm. The contract is split
  // accordingly: pushes inside a batch, training slices and error passes
  // included, are strictly allocation-free, and the batch boundary —
  // whose pooling bookkeeping reuses member scratch and recycled pool
  // buffers — allocates only inside the decision statistics (Granger
  // regressions, ADWIN buckets, deque chunk churn), a small amortized
  // constant per batch, never per push.
  constexpr size_t kBatchSize = 50;  // RbmIm::Params default.
  static_assert(kWarm % kBatchSize == 0,
                "warmup must end on a batch boundary");
  const std::vector<Instance> data = MakeData(kWarm + kMeasure, 11);
  test_util::OwnedEngine owned(StreamSchema(6, 3), "naive-bayes", "RBM-IM",
                               42, SteadyConfig(), 1024);
  MonitorEngine& engine = owned.engine;
  for (size_t i = 0; i < kWarm; ++i) engine.Feed(data[i]);

  const uint64_t within_batch = AllocationsDuring([&] {
    for (size_t i = kWarm; i < kWarm + kBatchSize - 1; ++i) {
      engine.Feed(data[i]);
    }
  });
  EXPECT_EQ(within_batch, 0u)
      << within_batch << " allocations across " << (kBatchSize - 1)
      << " within-batch Feed() calls (classifier=naive-bayes, "
         "detector=RBM-IM)";

  const uint64_t with_boundaries = AllocationsDuring([&] {
    for (size_t i = kWarm + kBatchSize - 1; i < data.size(); ++i) {
      engine.Feed(data[i]);
    }
  });
  const uint64_t boundaries = (kMeasure - (kBatchSize - 1)) / kBatchSize + 1;
  // Measured exactly 3/batch on libstdc++ (deque chunk churn in the ADWIN
  // rows, the trend window and the trend history); one of headroom, so a
  // single new allocation per batch — let alone per instance — trips it.
  EXPECT_LE(with_boundaries, boundaries * 4)
      << with_boundaries << " allocations across " << boundaries
      << " batch boundaries — per-instance allocation crept back into "
         "RbmIm::ProcessBatch";
}

TEST(AllocTest, CsPerceptronTreeSplitChecksAreAllocationFree) {
  CCD_ALLOC_GUARD();
  // Labels independent of the features: every grace period the root runs
  // a full split scan (6 features x 5 candidate means) and finds nothing
  // worth splitting on. The scan's count rows and per-class sds are
  // member scratch, so a check that does not split allocates nothing.
  const StreamSchema schema(6, 5);
  CsPerceptronTree::Params params;
  params.grace_period = 25;
  CsPerceptronTree tree(schema, params);
  Rng rng(17);
  std::vector<Instance> data;
  for (size_t i = 0; i < kWarm + kMeasure; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.NextDouble();
    data.emplace_back(std::move(x), rng.UniformInt(0, 4));
  }
  for (size_t i = 0; i < kWarm; ++i) tree.Train(data[i]);

  const uint64_t allocations = AllocationsDuring([&] {
    for (size_t i = kWarm; i < data.size(); ++i) tree.Train(data[i]);
  });
  ASSERT_EQ(tree.num_leaves(), 1) << "noise labels split the root";
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations across "
      << kMeasure / static_cast<size_t>(params.grace_period)
      << " split checks that did not split";
}

TEST(AllocTest, PmAucTicksAreAllocationFreeAtTwentyClasses) {
  CCD_ALLOC_GUARD();
  // RBF20 (K = 20) with a pmAUC tick every 50 pushes: the tick's packing
  // and ratio scratch must be reused, not reallocated. The engine's
  // pmauc_series grows geometrically by design, so the warm-up runs 66
  // ticks (capacity 128) and the measured pushes add 10 more, crossing no
  // capacity boundary.
  BuildOptions options;
  options.scale = 0.001;  // 2000 instances: the 4000-instance floor.
  BuiltStream built = BuildStream(*FindStreamSpec("RBF20"), options);
  constexpr size_t kTickWarm = 3400;
  std::vector<Instance> data;
  for (size_t i = 0; i < kTickWarm + kMeasure; ++i) {
    data.push_back(built.stream->Next());
  }
  PrequentialConfig config = SteadyConfig();
  config.eval_interval = 50;
  config.metric_window = 1000;
  test_util::OwnedEngine owned(built.stream->schema(), "naive-bayes", "", 42,
                               config, 1024);
  MonitorEngine& engine = owned.engine;
  for (size_t i = 0; i < kTickWarm; ++i) engine.Feed(data[i]);

  const uint64_t allocations = AllocationsDuring([&] {
    for (size_t i = kTickWarm; i < data.size(); ++i) engine.Feed(data[i]);
  });
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations across " << kMeasure
      << " pushes with a K=20 pmAUC tick every 50";
}

TEST(AllocTest, FeedBatchIsAllocationFree) {
  CCD_ALLOC_GUARD();
  const std::vector<Instance> data = MakeData(kWarm + kMeasure, 13);
  test_util::OwnedEngine owned(StreamSchema(6, 3), "naive-bayes", "", 42,
                               SteadyConfig(), 1024);
  MonitorEngine& engine = owned.engine;
  const std::vector<Instance> warm(data.begin(), data.begin() + kWarm);
  const std::vector<Instance> batch(data.begin() + kWarm, data.end());
  engine.FeedBatch(warm);

  const uint64_t allocations =
      AllocationsDuring([&] { engine.FeedBatch(batch); });
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations in a steady-state FeedBatch of "
      << batch.size();
}

TEST(AllocTest, PredictLabelCycleIsAllocationFree) {
  CCD_ALLOC_GUARD();
  // Engine-level serving cycle with a reused ticket: the pending ring and
  // the ticket's score capacity absorb every push.
  const std::vector<Instance> data = MakeData(kWarm + kMeasure, 17);
  const StreamSchema schema(6, 3, "alloc-test");
  std::unique_ptr<OnlineClassifier> classifier =
      api::Classifiers().Create("naive-bayes", schema, 42, {});
  MonitorEngine engine(schema, classifier.get(), nullptr, SteadyConfig(), {},
                       /*pending_capacity=*/64);
  MonitorEngine::Ticket ticket;
  for (size_t i = 0; i < kWarm; ++i) {
    engine.Predict(data[i].features, data[i].weight, &ticket);
    engine.Label(ticket.id, data[i].label);
  }

  const uint64_t allocations = AllocationsDuring([&] {
    for (size_t i = kWarm; i < data.size(); ++i) {
      engine.Predict(data[i].features, data[i].weight, &ticket);
      engine.Label(ticket.id, data[i].label);
    }
  });
  EXPECT_EQ(allocations, 0u)
      << allocations << " allocations across " << kMeasure
      << " steady-state Predict/Label cycles";
}

TEST(AllocTest, BatchServingCycleIsAllocationFree) {
  CCD_ALLOC_GUARD();
  // PredictBatch/LabelBatch with caller-owned, capacity-warmed output
  // vectors: after the first lap nothing grows.
  const std::vector<Instance> data = MakeData(kWarm + kMeasure, 19);
  const StreamSchema schema(6, 3, "alloc-test");
  std::unique_ptr<OnlineClassifier> classifier =
      api::Classifiers().Create("naive-bayes", schema, 42, {});
  MonitorEngine engine(schema, classifier.get(), nullptr, SteadyConfig(), {},
                       /*pending_capacity=*/128);

  constexpr size_t kBatch = 50;
  std::vector<Instance> batch;
  std::vector<MonitorEngine::Ticket> tickets;
  std::vector<LabelRequest> labels(kBatch);
  std::vector<LabelOutcome> outcomes;
  outcomes.reserve(kBatch);
  auto run_lap = [&](size_t offset) {
    batch.assign(data.begin() + static_cast<long>(offset),
                 data.begin() + static_cast<long>(offset + kBatch));
    engine.PredictBatch(batch, &tickets);
    for (size_t j = 0; j < kBatch; ++j) {
      labels[j].id = tickets[j].id;
      labels[j].label = batch[j].label;
    }
    engine.LabelBatch(labels, &outcomes);
  };
  for (size_t offset = 0; offset + kBatch <= kWarm; offset += kBatch) {
    run_lap(offset);
  }

  const uint64_t allocations = AllocationsDuring([&] {
    for (size_t offset = kWarm; offset + kBatch <= data.size();
         offset += kBatch) {
      run_lap(offset);
    }
  });
  EXPECT_EQ(allocations, 0u)
      << allocations
      << " allocations across steady-state PredictBatch/LabelBatch laps";
}

/// A 4-shard fleet on the steady-state protocol.
api::ShardedMonitor MakeFleet() {
  return api::ShardedMonitorBuilder()
      .Schema(6, 3)
      .Classifier("naive-bayes")
      .NoDetector()
      .Protocol(SteadyConfig())
      .Shards(4)
      .Build();
}

constexpr size_t kFleetWarm = 4 * kWarm;  ///< kWarm per shard, roughly.
constexpr size_t kChunk = 64;             ///< Batch size of the batch legs.

/// `data[begin, end)` as keyed batches of kChunk; key i for instance i.
std::vector<std::vector<api::ShardedMonitor::KeyedInstance>> KeyedChunks(
    const std::vector<Instance>& data, size_t begin, size_t end) {
  std::vector<std::vector<api::ShardedMonitor::KeyedInstance>> chunks;
  for (size_t i = begin; i < end; ++i) {
    if ((i - begin) % kChunk == 0) chunks.emplace_back();
    chunks.back().push_back({static_cast<uint64_t>(i), data[i]});
  }
  return chunks;
}

TEST(AllocTest, ShardedFeedAndLabelAreAllocationFree) {
  CCD_ALLOC_GUARD();
  const std::vector<Instance> data =
      MakeData(kFleetWarm + 2 * kMeasure, 23);
  api::ShardedMonitor fleet = MakeFleet();
  for (size_t i = 0; i < kFleetWarm; ++i) fleet.Feed(i, data[i]);

  const uint64_t feeds = AllocationsDuring([&] {
    for (size_t i = kFleetWarm; i < kFleetWarm + kMeasure; ++i) {
      fleet.Feed(i, data[i]);
    }
  });
  EXPECT_EQ(feeds, 0u) << feeds << " allocations across " << kMeasure
                       << " steady-state ShardedMonitor::Feed() calls";

  // Predictions are made outside the measured region (a Prediction owns
  // its scores); only their labels are counted.
  std::vector<api::ShardedMonitor::Prediction> tickets;
  const std::vector<std::vector<api::ShardedMonitor::KeyedInstance>> chunks =
      KeyedChunks(data, kFleetWarm + kMeasure, data.size());
  uint64_t labels = 0;
  for (const auto& chunk : chunks) {
    fleet.PredictBatch(chunk, &tickets);
    labels += AllocationsDuring([&] {
      for (size_t j = 0; j < chunk.size(); ++j) {
        fleet.Label(tickets[j].shard, tickets[j].id, chunk[j].instance.label);
      }
    });
  }
  EXPECT_EQ(labels, 0u) << labels << " allocations across " << kMeasure
                        << " steady-state ShardedMonitor::Label() calls";
}

TEST(AllocTest, ShardedBatchPushesAreAllocationFree) {
  CCD_ALLOC_GUARD();
  const std::vector<Instance> data =
      MakeData(kFleetWarm + 2 * kMeasure, 29);
  api::ShardedMonitor fleet = MakeFleet();
  for (const auto& chunk : KeyedChunks(data, 0, kFleetWarm)) {
    fleet.FeedBatch(chunk);
  }

  const std::vector<std::vector<api::ShardedMonitor::KeyedInstance>> feeds =
      KeyedChunks(data, kFleetWarm, kFleetWarm + kMeasure);
  const uint64_t feed_allocations = AllocationsDuring([&] {
    for (const auto& chunk : feeds) fleet.FeedBatch(chunk);
  });
  EXPECT_EQ(feed_allocations, 0u)
      << feed_allocations << " allocations across " << feeds.size()
      << " steady-state ShardedMonitor::FeedBatch() calls";

  std::vector<api::ShardedMonitor::Prediction> tickets;
  std::vector<api::ShardedMonitor::ShardLabel> labels(kChunk);
  std::vector<LabelOutcome> outcomes(kChunk);
  const std::vector<std::vector<api::ShardedMonitor::KeyedInstance>> cycles =
      KeyedChunks(data, kFleetWarm + kMeasure, data.size());
  uint64_t label_allocations = 0;
  for (const auto& chunk : cycles) {
    fleet.PredictBatch(chunk, &tickets);
    labels.resize(chunk.size());
    for (size_t j = 0; j < chunk.size(); ++j) {
      labels[j] = {tickets[j].shard, tickets[j].id, chunk[j].instance.label};
    }
    label_allocations +=
        AllocationsDuring([&] { fleet.LabelBatch(labels, &outcomes); });
  }
  EXPECT_EQ(label_allocations, 0u)
      << label_allocations << " allocations across " << cycles.size()
      << " steady-state ShardedMonitor::LabelBatch() calls";
}

}  // namespace
}  // namespace ccd
