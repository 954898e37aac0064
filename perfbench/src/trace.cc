#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace trace {
namespace {

constexpr size_t kMaxSpansPerThread = size_t{1} << 16;

struct Frame {
  uint64_t start = 0;
  uint64_t child_ns = 0;
  int32_t slot = -1;
};

struct SpanRecord {
  int32_t parent = -1;
  int32_t root = -1;
  int32_t kind = 0;
  uint64_t start = 0;
  uint64_t duration = 0;
};

struct ThreadState {
  int id = 0;
  bool in_use = false;  // Guarded by g_mu.
  Table table;
  std::vector<Frame> stack;
  std::vector<SpanRecord> spans;
  uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // Guarded by g_mu.

/// Binds a ThreadState to the current thread; on thread exit the state
/// keeps its data (Collect still sees it) and becomes free for the next
/// new thread, so short-lived pool workers do not grow memory per pass.
struct Binding {
  ThreadState* state = nullptr;
  Binding() = default;
  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;
  ~Binding() {
    if (state == nullptr) return;
    std::lock_guard<std::mutex> lock(g_mu);
    state->in_use = false;
  }
};

ThreadState& Local() {
  thread_local Binding binding;
  if (binding.state == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto& t : g_threads) {
      if (!t->in_use) {
        binding.state = t.get();
        break;
      }
    }
    if (binding.state == nullptr) {
      auto state = std::make_unique<ThreadState>();
      state->stack.reserve(64);
      state->spans.reserve(kMaxSpansPerThread);
      state->id = static_cast<int>(g_threads.size());
      binding.state = state.get();
      g_threads.push_back(std::move(state));
    }
    binding.state->in_use = true;
  }
  return *binding.state;
}

}  // namespace

const char* KindName(Kind k) {
  static const char* const kNames[kKinds] = {
      "gen.next",         "api.build",       "cls.predict",
      "cls.train",        "cls.other",       "det.WSTD",
      "det.RDDM",         "det.FHDDM",       "det.PerfSim",
      "det.DDM-OCI",      "det.other",       "det.misc",
      "rbm_im.observe",   "rbm_im.batch_close", "eval.cell",
      "api.predict",      "api.label",       "push.predict",
      "push.label",       "push.feed",       "push.feed_batch",
      "engine.call"};
  return k >= 0 && k < kKinds ? kNames[k] : "?";
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& t : g_threads) {
    for (Totals& totals : t->table) totals = Totals{};
    t->stack.clear();
    t->spans.clear();
    t->dropped = 0;
  }
}

Table Collect() {
  Table out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (int k = 0; k < kKinds; ++k) {
      out[k].count += t->table[k].count;
      out[k].total_ns += t->table[k].total_ns;
      out[k].self_ns += t->table[k].self_ns;
      out[k].hist.Merge(t->table[k].hist);
    }
  }
  return out;
}

uint64_t DroppedSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t n = 0;
  for (const auto& t : g_threads) n += t->dropped;
  return n;
}

long WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fprintf(f, "thread\tspan\tparent\troot\tkind\tstart_ns\tduration_ns\n");
  long written = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      std::fprintf(f, "%d\t%zu\t%d\t%d\t%s\t%llu\t%llu\n", t->id, i, s.parent,
                   s.root, KindName(static_cast<Kind>(s.kind)),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.duration));
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

Scope::Scope(Kind kind) : kind_(kind), active_(Enabled()) {
  if (!active_) return;
  ThreadState& t = Local();
  Frame frame;
  if (t.spans.size() < kMaxSpansPerThread) {
    frame.slot = static_cast<int32_t>(t.spans.size());
    SpanRecord rec;
    rec.parent = t.stack.empty() ? -1 : t.stack.back().slot;
    rec.root = t.stack.empty() ? frame.slot : t.stack.front().slot;
    t.spans.push_back(rec);
  } else {
    ++t.dropped;
  }
  t.stack.push_back(frame);
  // Read the clock last, so the bookkeeping above is not billed to the span.
  t.stack.back().start = NowNs();
}

Scope::~Scope() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadState& t = Local();
  const Frame frame = t.stack.back();
  t.stack.pop_back();
  const uint64_t duration = end - frame.start;
  Totals& totals = t.table[kind_];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration > frame.child_ns ? duration - frame.child_ns : 0;
  totals.hist.Record(duration);
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
  if (frame.slot >= 0) {
    SpanRecord& rec = t.spans[static_cast<size_t>(frame.slot)];
    rec.kind = kind_;
    rec.start = frame.start;
    rec.duration = duration;
  }
}

}  // namespace trace
}  // namespace perfbench
