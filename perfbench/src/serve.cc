// serve-paper: one single-threaded api::Monitor with the paper's
// configuration (cs-ptree + RBM-IM) on RBF10. Closed loop: each iteration
// predicts the next instance and labels the one predicted kDelay
// iterations earlier; a seeded share of labels never arrives, so the
// pending buffer fills and evicts. One operation is one iteration.

#include <cinttypes>
#include <deque>
#include <fstream>

#include "api/api.h"
#include "common.h"
#include "generators/registry.h"
#include "layers.h"
#include "traced.h"
#include "utils/rng.h"

namespace perfbench {
namespace {

constexpr size_t kInstances = 50000;  // Per round (RBF10 at scale 0.05).
constexpr size_t kDelay = 32;
constexpr double kDropShare = 0.02;
constexpr size_t kPendingCapacity = 256;

struct Inputs {
  ccd::StreamSchema schema;
  std::vector<ccd::Instance> stream;
  std::vector<uint8_t> dropped;
  double generate_s = 0.0;
};

/// Counters of a round; `digest` also covers every deterministic field
/// of Result().
struct RoundOut {
  uint64_t digest = 0;
  uint64_t position = 0;
  uint64_t pending = 0;
  uint64_t evicted = 0;
  uint64_t unmatched = 0;
  uint64_t labels_refused = 0;
  uint64_t drifts = 0;  // RBM-IM alarms in Result(); covered by `digest`.
  double wall_s = 0.0;
};

bool SameRound(const RoundOut& a, const RoundOut& b) {
  return a.digest == b.digest && a.position == b.position &&
         a.pending == b.pending && a.evicted == b.evicted &&
         a.unmatched == b.unmatched;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  const uint64_t t0 = NowNs();
  ccd::BuildOptions options;
  options.seed = seed;
  const ccd::StreamSpec& spec = *ccd::FindStreamSpec("RBF10");
  options.scale = static_cast<double>(kInstances) /
                  static_cast<double>(spec.full_length);
  ccd::BuiltStream built = ccd::BuildStream(spec, options);
  in.schema = built.stream->schema();
  in.stream.reserve(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    in.stream.push_back(built.stream->Next());
  }
  in.generate_s = SecondsSince(t0);
  ccd::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  in.dropped.resize(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    in.dropped[i] = rng.Bernoulli(kDropShare) ? 1 : 0;
  }
  return in;
}

/// Round r of a run serves the stream of this seed; round 0 the run seed.
uint64_t RoundSeed(uint64_t seed, size_t round) {
  return seed + static_cast<uint64_t>(round) * 7919;
}

ccd::api::Monitor MakeMonitor(const Inputs& in, uint64_t seed, bool traced) {
  return ccd::api::MonitorBuilder()
      .Schema(in.schema)
      .Classifier(traced ? Traced("cs-ptree") : "cs-ptree")
      .Detector(traced ? Traced("RBM-IM") : "RBM-IM")
      .Seed(seed)
      .PendingCapacity(kPendingCapacity)
      .Build();
}

/// Independent model of the pending buffer over the label schedule: the
/// counts a correct Monitor must report after a round.
RoundOut ExpectedCounts(const Inputs& in) {
  RoundOut e;
  std::deque<size_t> pending;
  auto label = [&](size_t j) {
    if (in.dropped[j]) return;
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (*it == j) {
        pending.erase(it);
        ++e.position;
        return;
      }
    }
    ++e.unmatched;
  };
  for (size_t t = 0; t < kInstances; ++t) {
    if (pending.size() >= kPendingCapacity) {
      pending.pop_front();
      ++e.evicted;
    }
    pending.push_back(t);
    if (t >= kDelay) label(t - kDelay);
  }
  for (size_t j = kInstances - kDelay; j < kInstances; ++j) label(j);
  e.pending = pending.size();
  return e;
}

RoundOut RunRound(const Inputs& in, uint64_t seed, bool traced,
                  Histogram* op, Histogram* predict, Histogram* label) {
  ccd::api::Monitor monitor = MakeMonitor(in, seed, traced);
  std::vector<uint64_t> ids(kInstances);
  RoundOut r;
  auto deliver = [&](size_t j) {
    if (in.dropped[j]) return;
    const uint64_t a = NowNs();
    bool applied;
    {
      trace::Scope span(trace::kApiLabel);
      applied = monitor.Label(ids[j], in.stream[j].label);
    }
    label->Record(NowNs() - a);
    if (!applied) ++r.labels_refused;
  };
  const uint64_t start = NowNs();
  for (size_t t = 0; t < kInstances; ++t) {
    const uint64_t a = NowNs();
    {
      trace::Scope span(trace::kApiPredict);
      ids[t] = monitor.Predict(in.stream[t].features, in.stream[t].weight).id;
    }
    predict->Record(NowNs() - a);
    if (t >= kDelay) deliver(t - kDelay);
    op->Record(NowNs() - a);
  }
  for (size_t j = kInstances - kDelay; j < kInstances; ++j) {
    const uint64_t a = NowNs();
    deliver(j);
    op->Record(NowNs() - a);
  }
  r.wall_s = SecondsSince(start);
  const ccd::PrequentialResult result = monitor.Result();
  r.drifts = result.drifts;
  Digest d;
  d.U64(ResultDigest(result));
  r.position = monitor.position();
  r.pending = monitor.pending();
  r.evicted = monitor.evicted();
  r.unmatched = monitor.unmatched_labels();
  d.U64(r.position);
  d.U64(r.pending);
  d.U64(r.evicted);
  d.U64(r.unmatched);
  r.digest = d.value();
  return r;
}

void CheckRound(const RoundOut& got, const RoundOut& expected,
                const RoundOut* baseline, const RoundOut* reference,
                Outcome* out) {
  out->Check(got.labels_refused == 0, "serve-paper every delivered label applied");
  out->Check(got.position == expected.position, "serve-paper position");
  out->Check(got.pending == expected.pending, "serve-paper pending");
  out->Check(got.evicted == expected.evicted, "serve-paper evicted");
  out->Check(got.unmatched == expected.unmatched, "serve-paper unmatched");
  if (baseline != nullptr) {
    out->Check(SameRound(got, *baseline), "serve-paper equals the baseline round");
  }
  if (reference != nullptr) {
    out->Check(SameRound(got, *reference),
               "serve-paper equals the committed reference");
  }
}

std::string ReferencePath(const Options& o) {
  return o.reference_dir + "/serve-paper.seed" + std::to_string(kReferenceSeed) +
         ".tsv";
}

bool ReadReference(const std::string& path, RoundOut* r) {
  std::ifstream in(path);
  std::string header, digest;
  if (!std::getline(in, header)) return false;
  if (!(in >> digest >> r->position >> r->pending >> r->evicted >>
        r->unmatched)) {
    return false;
  }
  r->digest = std::strtoull(digest.c_str(), nullptr, 16);
  return true;
}

void TamperSelfTest(const RoundOut& real, const RoundOut& expected,
                    const RoundOut* reference, Outcome* out) {
  auto expect_caught = [&](const char* what, auto mutate) {
    RoundOut bad = real;
    mutate(&bad);
    Outcome probe;
    probe.quiet = true;
    CheckRound(bad, expected, &real, reference, &probe);
    out->ExpectTamperCaught(probe, std::string("serve-paper ") + what);
  };
  expect_caught("result digest", [](RoundOut* r) { r->digest ^= 1; });
  expect_caught("evicted +1", [](RoundOut* r) { r->evicted += 1; });
  expect_caught("unmatched +1", [](RoundOut* r) { r->unmatched += 1; });
  expect_caught("position -1", [](RoundOut* r) { r->position -= 1; });
  expect_caught("refused label", [](RoundOut* r) { r->labels_refused = 1; });
}

}  // namespace

Outcome RunServePaper(const Options& options) {
  Outcome out;
  RoundOut reference;
  const bool use_reference =
      options.seed == kReferenceSeed && !options.write_reference;
  if (use_reference) {
    out.Check(ReadReference(ReferencePath(options), &reference),
              "reference file " + ReferencePath(options) + " readable");
  }
  const RoundOut* ref = use_reference ? &reference : nullptr;

  // Set-up: generate the stream and the label schedule, build the monitor.
  Inputs in;
  SetupTimer setup(8, [&] {
    in = MakeInputs(options.seed);
    ccd::api::Monitor warm = MakeMonitor(in, options.seed, false);
  });
  const double generate_s = in.generate_s;

  if (options.write_reference) {
    Histogram a, b, c;
    const RoundOut r = RunRound(in, options.seed, false, &a, &b, &c);
    std::FILE* f = std::fopen(ReferencePath(options).c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "digest\tposition\tpending\tevicted\tunmatched\n");
      std::fprintf(f, "%016" PRIx64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                   "\t%" PRIu64 "\n",
                   r.digest, r.position, r.pending, r.evicted, r.unmatched);
      std::fclose(f);
    }
    std::printf("wrote %s\n", ReferencePath(options).c_str());
    out.Metric("rounds", 1, "count");
    out.attempted = 1;
    return out;
  }

  // Round r serves its own stream (seed RoundSeed(seed, r); round 0 is the
  // set-up stream), so a run averages over several realizations. Inputs
  // of later rounds are generated between rounds, outside the timing.
  Histogram op, predict, label;
  std::vector<double> rates, p50s, p99s;
  std::vector<RoundOut> rounds;
  const double leg_s = options.trace ? options.seconds * 0.5 : options.seconds;
  const uint64_t t0 = NowNs();
  do {
    const uint64_t seed = RoundSeed(options.seed, rounds.size());
    if (!rounds.empty()) in = MakeInputs(seed);
    const RoundOut expected = ExpectedCounts(in);
    Histogram round_op;
    RoundOut r = RunRound(in, seed, false, &round_op, &predict, &label);
    op.Merge(round_op);
    p50s.push_back(round_op.Percentile(0.5) * 1e-3);
    p99s.push_back(round_op.Percentile(0.99) * 1e-3);
    out.attempted += kInstances + expected.position + expected.unmatched;
    rates.push_back(static_cast<double>(r.position) / r.wall_s);
    CheckRound(r, expected, nullptr, rounds.empty() ? ref : nullptr, &out);
    if (rounds.empty()) TamperSelfTest(r, expected, ref, &out);
    rounds.push_back(r);
  } while (SecondsSince(t0) < leg_s);

  if (!options.trace) {
    std::printf("serve-paper rounds=%zu round inst_per_s min=%.0f "
                "median=%.0f max=%.0f, round op_p50_us min=%.3f median=%.3f "
                "max=%.3f, evicted=%llu unmatched=%llu\n",
                rounds.size(), Quantile(rates, 0), Median(rates),
                Quantile(rates, 1), Quantile(p50s, 0), Median(p50s),
                Quantile(p50s, 1),
                static_cast<unsigned long long>(rounds.front().evicted),
                static_cast<unsigned long long>(rounds.front().unmatched));
    PrintLatency("serve-paper", "op", op);
    PrintLatency("serve-paper", "predict", predict);
    PrintLatency("serve-paper", "label", label);
    out.Metric("setup_s", setup.Finish(), "s");
    out.Metric("inst_per_s", FastQuartileRate(rates), "1/s");
    out.Metric("op_p50_us", FastQuartileTime(p50s), "us");
    out.Metric("op_p99_us", FastQuartileTime(p99s), "us");
    return out;
  }

  // Traced leg: the same rounds again, each compared bit for bit with its
  // untraced twin.
  RegisterTracedComponents();
  trace::Reset();
  trace::Enable(true);
  std::vector<Triple> triples;
  Histogram top, tpredict, tlabel;
  double traced_wall = 0.0, untraced_wall = 0.0;
  double first_batches = 0.0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const uint64_t seed = RoundSeed(options.seed, i);
    in = MakeInputs(seed);
    const RoundOut expected = ExpectedCounts(in);
    if (i == 0) ArmTripleRecorder(&triples, kInstances);
    const RoundOut r = RunRound(in, seed, true, &top, &tpredict, &tlabel);
    DisarmTripleRecorder();
    if (i == 0) {
      first_batches =
          static_cast<double>(trace::Collect()[trace::kRbmBatchClose].count);
    }
    out.attempted += kInstances + expected.position + expected.unmatched;
    CheckRound(r, expected, &rounds[i], i == 0 ? ref : nullptr, &out);
    traced_wall += r.wall_s;
    untraced_wall += rounds[i].wall_s;
  }
  trace::Enable(false);
  const trace::Table t = trace::Collect();

  Layers layers;
  layers.gen_ns_per_inst = generate_s * 1e9 / kInstances;
  layers.FromComponents(t, traced_wall * 1e9);
  layers.rbm_batches = first_batches;
  layers.rbm_alarms = static_cast<double>(rounds.front().drifts);
  const trace::Totals& p = t[trace::kApiPredict];
  const trace::Totals& l = t[trace::kApiLabel];
  layers.engine_self_ns =
      static_cast<double>(p.self_ns + l.self_ns) / (p.count + l.count);
  const std::pair<double, double> replay =
      ReplayMetrics(triples, in.schema.num_classes);
  layers.metrics_add_ns = replay.first;
  layers.pmauc_tick_us = replay.second;
  layers.evicted = static_cast<double>(rounds.front().evicted);
  layers.unmatched = static_cast<double>(rounds.front().unmatched);
  layers.trace_overhead_frac = traced_wall / untraced_wall - 1.0;
  layers.Emit(&out);

  const std::string spans = options.work_dir + "/trace-serve-paper-seed" +
                            std::to_string(options.seed) + ".tsv";
  std::printf("serve-paper traced rounds=%zu overhead=%.4f spans=%ld (%s)\n",
              rounds.size(), layers.trace_overhead_frac,
              trace::WriteSpans(spans), spans.c_str());
  return out;
}

}  // namespace perfbench
