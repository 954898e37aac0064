// fleet: a 4-shard api::ShardedMonitor (naive-bayes, no detector) on RBF5.
// Three closed-loop producers push keyed chunks of 64, each chunk in one
// seeded form: per-instance Predict with a delayed Label, per-instance
// Feed, or one FeedBatch. A fourth, open-loop operator thread sends STATS
// through io::MonitorService at a fixed cadence. The run ends with timed
// Persist and ShardedMonitor::Open. One operation is one per-instance push.

#include <atomic>
#include <deque>
#include <filesystem>
#include <thread>

#include "api/api.h"
#include "common.h"
#include "generators/registry.h"
#include "io/monitor_service.h"
#include "layers.h"
#include "runtime/mpsc_queue.h"
#include "runtime/router.h"
#include "traced.h"
#include "utils/rng.h"

namespace perfbench {
namespace {

using ccd::api::ShardedMonitor;

constexpr int kShards = 4;
constexpr int kProducers = 3;
constexpr size_t kChunk = 64;
constexpr size_t kPool = 32768;  // Pre-generated instances, cycled.
constexpr uint32_t kKeys = 4096;
constexpr size_t kDelay = 8;
constexpr double kDropShare = 0.02;
constexpr size_t kPendingCapacity = 1024;
constexpr uint64_t kStatsPeriodNs = 10000000;  // 100 STATS per second.
constexpr uint64_t kWindowNs = 500000000;     // Throughput sampling window.
constexpr size_t kReplayOps = 20000;

struct Inputs {
  ccd::StreamSchema schema;
  std::vector<ccd::Instance> pool;
  std::vector<uint64_t> keys;
  std::vector<std::vector<ShardedMonitor::KeyedInstance>> batches;
  double generate_s = 0.0;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  const uint64_t t0 = NowNs();
  const ccd::StreamSpec& spec = *ccd::FindStreamSpec("RBF5");
  ccd::BuildOptions options;
  options.seed = seed;
  options.scale =
      static_cast<double>(kPool) / static_cast<double>(spec.full_length);
  ccd::BuiltStream built = ccd::BuildStream(spec, options);
  in.schema = built.stream->schema();
  in.pool.reserve(kPool);
  for (size_t i = 0; i < kPool; ++i) in.pool.push_back(built.stream->Next());
  in.generate_s = SecondsSince(t0);
  ccd::Rng rng(seed ^ 0xa0761d6478bd642fULL);
  in.keys.resize(kPool);
  for (uint64_t& k : in.keys) k = rng.NextU32() % kKeys;
  for (size_t c = 0; c < kPool / kChunk; ++c) {
    std::vector<ShardedMonitor::KeyedInstance> batch;
    for (size_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
      batch.push_back(ShardedMonitor::KeyedInstance{in.keys[i], in.pool[i]});
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

/// ShardedMonitor is immovable: callers bind Builder(...).Build() directly.
ccd::api::ShardedMonitorBuilder Builder(const Inputs& in, uint64_t seed,
                                        bool traced) {
  ccd::api::ShardedMonitorBuilder b;
  b.Schema(in.schema)
      .Classifier(traced ? Traced("naive-bayes") : "naive-bayes")
      .NoDetector()
      .Seed(seed)
      .Shards(kShards)
      .PendingCapacity(kPendingCapacity);
  return b;
}

/// One per-instance push a producer made, for the bare-engine replay.
struct RecordedOp {
  enum Kind { kPredict, kLabel, kFeed } kind = kFeed;
  size_t item = 0;       // Pool index (predict/feed) or op index (label).
};

struct alignas(64) Producer {
  Histogram push;
  Histogram batch;
  std::atomic<uint64_t> completed{0};
  uint64_t ops = 0;
  uint64_t dropped = 0;
  uint64_t refused = 0;
  std::vector<RecordedOp> record;  // Filled only when recording.
};

struct Operator {
  Histogram stats;     // STATS latency from when each call was due.
  Histogram lag;       // How late each call started.
  Histogram service;   // STATS from its actual start to its reply.
  Histogram direct;    // The same six counters read directly (traced leg).
  Histogram snapshot;  // Snapshot() + Result() (traced leg).
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t sink = 0;  // Keeps the traced reads observable.
};

struct InFlight {
  int shard = 0;
  uint64_t id = 0;
  int label = 0;
  bool dropped = false;
  size_t op = 0;
};

void ProducerLoop(const Inputs& in, ShardedMonitor* monitor, int index,
                  uint64_t seed, bool record, const std::atomic<bool>* stop,
                  Producer* p) {
  ccd::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(index));
  std::deque<InFlight> inflight;
  size_t chunk = static_cast<size_t>(index) * 97 % in.batches.size();
  auto note = [&](RecordedOp::Kind kind, size_t item) {
    if (record && p->record.size() < kReplayOps) {
      p->record.push_back(RecordedOp{kind, item});
    }
  };
  auto deliver = [&](const InFlight& f) {
    if (f.dropped) {
      ++p->dropped;
      return;
    }
    note(RecordedOp::kLabel, f.op);
    const uint64_t a = NowNs();
    bool applied;
    {
      trace::Scope span(trace::kPushLabel);
      applied = monitor->Label(f.shard, f.id, f.label);
    }
    p->push.Record(NowNs() - a);
    ++p->ops;
    if (applied) {
      p->completed.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++p->refused;
    }
  };
  while (!stop->load(std::memory_order_relaxed)) {
    const size_t base = chunk * kChunk;
    const int form = rng.UniformInt(0, 2);
    if (form == 0) {
      for (size_t i = base; i < base + kChunk; ++i) {
        const bool dropped = rng.Bernoulli(kDropShare);
        const size_t op_index = record ? p->record.size() : 0;
        note(RecordedOp::kPredict, i);
        const uint64_t a = NowNs();
        ShardedMonitor::Prediction pred;
        {
          trace::Scope span(trace::kPushPredict);
          pred = monitor->Predict(in.keys[i], in.pool[i].features,
                                  in.pool[i].weight);
        }
        p->push.Record(NowNs() - a);
        ++p->ops;
        inflight.push_back(
            InFlight{pred.shard, pred.id, in.pool[i].label, dropped, op_index});
        if (inflight.size() > kDelay) {
          deliver(inflight.front());
          inflight.pop_front();
        }
      }
    } else if (form == 1) {
      for (size_t i = base; i < base + kChunk; ++i) {
        note(RecordedOp::kFeed, i);
        const uint64_t a = NowNs();
        {
          trace::Scope span(trace::kPushFeed);
          monitor->Feed(in.keys[i], in.pool[i]);
        }
        p->push.Record(NowNs() - a);
        ++p->ops;
        p->completed.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      const uint64_t a = NowNs();
      {
        trace::Scope span(trace::kPushBatch);
        monitor->FeedBatch(in.batches[chunk]);
      }
      p->batch.Record(NowNs() - a);
      ++p->ops;
      p->completed.fetch_add(kChunk, std::memory_order_relaxed);
    }
    chunk = (chunk + 1) % in.batches.size();
  }
  while (!inflight.empty()) {
    deliver(inflight.front());
    inflight.pop_front();
  }
}

void OperatorLoop(ccd::io::MonitorService* service, ShardedMonitor* monitor,
                  bool traced, const std::atomic<bool>* stop, Operator* op) {
  const uint64_t start = NowNs();
  for (uint64_t k = 1; !stop->load(std::memory_order_relaxed); ++k) {
    const uint64_t due = start + k * kStatsPeriodNs;
    const uint64_t now = NowNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const uint64_t begin = NowNs();
    const std::string reply = service->Handle("STATS");
    const uint64_t end = NowNs();
    op->lag.Record(begin > due ? begin - due : 0);
    op->stats.Record(end - due);
    op->service.Record(end - begin);
    ++op->calls;
    if (reply.rfind("OK position=", 0) != 0) ++op->errors;
    if (!traced) continue;
    // The same counters read directly, and (every tenth call) the full
    // aggregate copies an operator dashboard would take.
    const uint64_t d0 = NowNs();
    op->sink += monitor->position() + monitor->pending() + monitor->evicted() +
                monitor->unmatched_labels() +
                static_cast<uint64_t>(monitor->shards()) +
                monitor->DriftLog().size();
    op->direct.Record(NowNs() - d0);
    if (k % 10 == 0) {
      const uint64_t s0 = NowNs();
      op->sink += monitor->Snapshot().position + monitor->Result().instances;
      op->snapshot.Record(NowNs() - s0);
    }
  }
}

struct LegOut {
  std::vector<double> window_rates;
  Histogram push;
  Histogram batch;
  Operator op;
  uint64_t completed = 0;
  uint64_t ops = 0;
  uint64_t dropped = 0;
  uint64_t refused = 0;
  double wall_s = 0.0;
  std::vector<RecordedOp> record;  // Producer 0's first kReplayOps ops.
};

LegOut RunLeg(const Inputs& in, ShardedMonitor* monitor, uint64_t seed,
              int producers, bool with_operator, bool traced, bool record,
              double seconds) {
  LegOut leg;
  std::vector<Producer> ps(static_cast<size_t>(producers));
  std::atomic<bool> stop{false};
  ccd::io::MonitorService service(monitor);
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  for (int i = 0; i < producers; ++i) {
    threads.emplace_back(ProducerLoop, std::cref(in), monitor, i, seed,
                         record && i == 0, &stop, &ps[static_cast<size_t>(i)]);
  }
  if (with_operator) {
    threads.emplace_back(OperatorLoop, &service, monitor, traced, &stop,
                         &leg.op);
  }
  uint64_t last_count = 0;
  uint64_t last_t = start;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const uint64_t next = std::min(last_t + kWindowNs, end);
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - NowNs()));
    const uint64_t now = NowNs();
    uint64_t count = 0;
    for (const Producer& p : ps) {
      count += p.completed.load(std::memory_order_relaxed);
    }
    if (now - last_t >= kWindowNs / 2) {
      leg.window_rates.push_back(static_cast<double>(count - last_count) /
                                 (static_cast<double>(now - last_t) * 1e-9));
    }
    last_count = count;
    last_t = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  leg.wall_s = SecondsSince(start);
  for (Producer& p : ps) {
    leg.push.Merge(p.push);
    leg.batch.Merge(p.batch);
    leg.completed += p.completed.load(std::memory_order_relaxed);
    leg.ops += p.ops;
    leg.dropped += p.dropped;
    leg.refused += p.refused;
  }
  leg.record = std::move(ps[0].record);
  return leg;
}

/// The counts a correct fleet must show after a leg, and after reopening.
struct FleetCounts {
  uint64_t position = 0;
  uint64_t pending = 0;
  uint64_t evicted = 0;
  uint64_t unmatched = 0;
  uint64_t refused = 0;
  uint64_t stats_errors = 0;
  uint64_t opened_position = 0;
  uint64_t opened_pending = 0;
};

void CheckFleet(const FleetCounts& got, const LegOut& leg, Outcome* out) {
  out->Check(got.refused == 0, "fleet every delivered label applied");
  out->Check(got.stats_errors == 0, "fleet every STATS answered OK");
  out->Check(got.position == leg.completed, "fleet position");
  out->Check(got.unmatched == 0, "fleet unmatched");
  out->Check(got.pending + got.evicted == leg.dropped,
             "fleet pending + evicted equals dropped labels");
  out->Check(got.opened_position == got.position,
             "fleet position after Open equals the persisted one");
  out->Check(got.opened_pending == got.pending,
             "fleet pending after Open equals the persisted one");
}

void TamperSelfTest(const FleetCounts& real, const LegOut& leg, Outcome* out) {
  auto expect_caught = [&](const char* what, auto mutate) {
    FleetCounts bad = real;
    mutate(&bad);
    Outcome probe;
    probe.quiet = true;
    CheckFleet(bad, leg, &probe);
    out->ExpectTamperCaught(probe, std::string("fleet ") + what);
  };
  expect_caught("position +1", [](FleetCounts* c) { c->position += 1; });
  expect_caught("pending -1", [](FleetCounts* c) { c->pending -= 1; });
  expect_caught("evicted +1", [](FleetCounts* c) { c->evicted += 1; });
  expect_caught("position after Open",
                [](FleetCounts* c) { c->opened_position -= 1; });
  expect_caught("refused label", [](FleetCounts* c) { c->refused = 1; });
}

struct Durability {
  std::vector<double> persist_ms;
  std::vector<double> open_ms;
  double state_kb = 0.0;
  uint64_t opened_position = 0;
  uint64_t opened_pending = 0;
};

Durability PersistAndOpen(ShardedMonitor* monitor, const std::string& dir,
                          int reps) {
  Durability d;
  for (int i = 0; i < reps; ++i) {
    uint64_t t0 = NowNs();
    monitor->Persist(dir);
    d.persist_ms.push_back(SecondsSince(t0) * 1e3);
    t0 = NowNs();
    ShardedMonitor opened = ShardedMonitor::Open(dir);
    d.open_ms.push_back(SecondsSince(t0) * 1e3);
    d.opened_position = opened.position();
    d.opened_pending = opened.pending();
  }
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  d.state_kb = static_cast<double>(bytes) / 1024.0;
  return d;
}

FleetCounts Count(const ShardedMonitor& m, const LegOut& leg,
                  const Durability& d) {
  FleetCounts c;
  c.position = m.position();
  c.pending = m.pending();
  c.evicted = m.evicted();
  c.unmatched = m.unmatched_labels();
  c.refused = leg.refused;
  c.stats_errors = leg.op.errors;
  c.opened_position = d.opened_position;
  c.opened_pending = d.opened_pending;
  return c;
}

/// Bare-engine replay of producer 0's recorded pushes: the engine's own
/// self time per call, without routing, locks or ingress.
double ReplayEngineSelfNs(const Inputs& in, const std::vector<RecordedOp>& ops,
                          uint64_t seed) {
  std::unique_ptr<ccd::OnlineClassifier> cls =
      ccd::api::Classifiers().Create(Traced("naive-bayes"), in.schema, seed);
  ccd::PrequentialConfig config;
  config.timing = false;
  ccd::MonitorEngine engine(in.schema, cls.get(), nullptr, config, {},
                            kPendingCapacity);
  std::vector<uint64_t> ids(ops.size(), 0);
  ccd::MonitorEngine::Ticket ticket;
  const trace::Table before = trace::Collect();
  for (size_t i = 0; i < ops.size(); ++i) {
    const RecordedOp& op = ops[i];
    trace::Scope span(trace::kEngineCall);
    if (op.kind == RecordedOp::kPredict) {
      const ccd::Instance& x = in.pool[op.item];
      engine.Predict(x.features, x.weight, &ticket);
      ids[i] = ticket.id;
    } else if (op.kind == RecordedOp::kLabel) {
      engine.Label(ids[op.item], in.pool[ops[op.item].item].label);
    } else {
      engine.Feed(in.pool[op.item]);
    }
  }
  const trace::Table after = trace::Collect();
  const trace::Totals& b = before[trace::kEngineCall];
  const trace::Totals& a = after[trace::kEngineCall];
  const uint64_t calls = a.count - b.count;
  return calls == 0 ? 0.0
                    : static_cast<double>(a.self_ns - b.self_ns) / calls;
}

double PushSelfNs(const trace::Table& t) {
  const trace::Totals& p = t[trace::kPushPredict];
  const trace::Totals& l = t[trace::kPushLabel];
  const trace::Totals& f = t[trace::kPushFeed];
  const uint64_t n = p.count + l.count + f.count;
  return n == 0 ? 0.0
                : static_cast<double>(p.self_ns + l.self_ns + f.self_ns) / n;
}

double RouteNs(const Inputs& in) {
  constexpr size_t kCalls = 2000000;
  uint64_t sink = 0;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kCalls; ++i) {
    sink += static_cast<uint64_t>(
        ccd::runtime::Router::KeySlot(in.keys[i % kPool] + i / kPool, kShards));
  }
  const uint64_t ns = NowNs() - t0;
  if (sink == ~uint64_t{0}) std::printf("unreachable\n");
  return static_cast<double>(ns) / kCalls;
}

double MpscNs(const Inputs& in) {
  constexpr size_t kPairs = 400000;
  ccd::runtime::MpscQueue<ccd::Instance> queue(1024);
  ccd::Instance out;
  uint64_t popped = 0;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kPairs; ++i) {
    queue.TryPush(in.pool[i % kPool]);
    popped += queue.TryPop(&out) ? 1 : 0;
  }
  const uint64_t ns = NowNs() - t0;
  if (popped != kPairs) std::fprintf(stderr, "mpsc replay lost entries\n");
  return static_cast<double>(ns) / kPairs;
}

}  // namespace

Outcome RunFleet(const Options& options) {
  Outcome out;
  Inputs in;
  SetupTimer setup(8, [&] {
    in = MakeInputs(options.seed);
    ShardedMonitor warm = Builder(in, options.seed, false).Build();
  });
  const std::string dir = options.work_dir + "/fleet-state";
  std::filesystem::remove_all(dir);

  const double leg_s = options.trace ? options.seconds * 0.4 : options.seconds;
  ShardedMonitor monitor = Builder(in, options.seed, false).Build();
  const LegOut leg = RunLeg(in, &monitor, options.seed, kProducers, true,
                            false, false, leg_s);
  out.attempted += leg.ops + leg.op.calls;
  const Durability dur = PersistAndOpen(&monitor, dir, 3);
  out.attempted += 6;
  const FleetCounts counts = Count(monitor, leg, dur);
  CheckFleet(counts, leg, &out);
  TamperSelfTest(counts, leg, &out);

  if (!options.trace) {
    std::printf("fleet ops=%llu completed=%llu dropped=%llu evicted=%llu "
                "windows=%zu\n",
                static_cast<unsigned long long>(leg.ops),
                static_cast<unsigned long long>(leg.completed),
                static_cast<unsigned long long>(leg.dropped),
                static_cast<unsigned long long>(counts.evicted),
                leg.window_rates.size());
    PrintLatency("fleet", "push", leg.push);
    PrintLatency("fleet", "feed_batch", leg.batch);
    PrintLatency("fleet", "stats", leg.op.stats);
    PrintLatency("fleet", "operator_lag", leg.op.lag);
    std::printf("fleet persist_ms=%.3f open_ms=%.3f state_kb=%.1f\n",
                Median(dur.persist_ms), Median(dur.open_ms), dur.state_kb);
    std::filesystem::remove_all(dir);
    out.Metric("setup_s", setup.Finish(), "s");
    out.Metric("inst_per_s", FastQuartileRate(leg.window_rates), "1/s");
    ReportOpLatency(leg.push, &out);
    return out;
  }

  // Traced legs: 3 producers with the operator, then 1 producer alone.
  RegisterTracedComponents();
  trace::Reset();
  trace::Enable(true);
  ShardedMonitor traced = Builder(in, options.seed, true).Build();
  const LegOut tleg = RunLeg(in, &traced, options.seed, kProducers, true,
                             true, true, leg_s);
  out.attempted += tleg.ops + tleg.op.calls;
  const trace::Table t3 = trace::Collect();

  // Durability layers: serialize and restore each shard, then persist.
  std::vector<double> serialize_us, restore_us;
  double serialize_total_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    for (int s = 0; s < kShards; ++s) {
      uint64_t t0 = NowNs();
      const std::string bytes = traced.SerializeShard(s);
      const double ser = SecondsSince(t0);
      serialize_us.push_back(ser * 1e6);
      if (rep == 0) serialize_total_ms += ser * 1e3;
      t0 = NowNs();
      traced.RestoreShard(s, bytes);
      restore_us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  const Durability tdur = PersistAndOpen(&traced, dir, 3);
  const FleetCounts tcounts = Count(traced, tleg, tdur);
  CheckFleet(tcounts, tleg, &out);
  const double engine_self = ReplayEngineSelfNs(in, tleg.record, options.seed);

  trace::Reset();
  ShardedMonitor solo = Builder(in, options.seed, true).Build();
  const LegOut sleg = RunLeg(in, &solo, options.seed, 1, false, true,
                             false, options.seconds * 0.2);
  out.attempted += sleg.ops;
  const trace::Table t1 = trace::Collect();
  trace::Enable(false);
  std::filesystem::remove_all(dir);

  Layers layers;
  layers.gen_ns_per_inst = in.generate_s * 1e9 / kPool;
  layers.FromComponents(t3, kProducers * tleg.wall_s * 1e9);
  layers.engine_self_ns = engine_self;
  layers.evicted = static_cast<double>(tcounts.evicted);
  layers.unmatched = static_cast<double>(tcounts.unmatched);
  layers.push_self_ns = PushSelfNs(t3) - engine_self;
  layers.contention_ns = PushSelfNs(t3) - PushSelfNs(t1);
  layers.route_ns = RouteNs(in);
  layers.mpsc_ns = MpscNs(in);
  const trace::Totals& b = t3[trace::kPushBatch];
  layers.batch_self_ns_per_inst =
      b.count == 0 ? 0.0 : static_cast<double>(b.self_ns) / (b.count * kChunk);
  layers.snapshot_us = tleg.op.snapshot.Percentile(0.5) * 1e-3;
  layers.service_self_us =
      (tleg.op.service.Percentile(0.5) - tleg.op.direct.Percentile(0.5)) *
      1e-3;
  layers.operator_lag_us = tleg.op.lag.Percentile(0.5) * 1e-3;
  layers.serialize_us = Median(serialize_us);
  layers.restore_us = Median(restore_us);
  layers.store_ms = Median(tdur.persist_ms) - serialize_total_ms;
  const double untraced_rate = Median(leg.window_rates);
  const double traced_rate = Median(tleg.window_rates);
  layers.trace_overhead_frac =
      traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0;
  layers.Emit(&out);

  const std::string spans = options.work_dir + "/trace-fleet-seed" +
                            std::to_string(options.seed) + ".tsv";
  std::printf("fleet traced overhead=%.4f replay_ops=%zu spans=%ld (%s)\n",
              layers.trace_overhead_frac, tleg.record.size(),
              trace::WriteSpans(spans), spans.c_str());
  return out;
}

}  // namespace perfbench
