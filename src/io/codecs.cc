#include "io/codecs.h"

namespace ccd {
namespace io {

void WriteInstance(Writer& w, const Instance& x) {
  w.F64Array(x.features);
  w.I64(x.label);
  w.F64(x.weight);
}

Instance ReadInstance(Reader& r) {
  Instance x;
  x.features = r.F64Array("instance.features");
  x.label = static_cast<int>(r.I64("instance.label"));
  x.weight = r.F64("instance.weight");
  return x;
}

void WriteDetectorState(Writer& w, DetectorState s) {
  w.U8(static_cast<uint8_t>(s));
}

DetectorState ReadDetectorState(Reader& r, const char* field) {
  uint8_t v = r.U8(field);
  if (v > static_cast<uint8_t>(DetectorState::kDrift)) {
    r.Fail(field, "invalid DetectorState value " + std::to_string(v));
  }
  return static_cast<DetectorState>(v);
}

void WriteWelford(Writer& w, const Welford& s) {
  w.U64(s.count());
  w.F64(s.mean());
  w.F64(s.m2());
}

Welford ReadWelford(Reader& r) {
  uint64_t n = r.U64("welford.n");
  double mean = r.F64("welford.mean");
  double m2 = r.F64("welford.m2");
  Welford out;
  out.RestoreState(n, mean, m2);
  return out;
}

void WriteRng(Writer& w, const Rng& rng) {
  Rng::State s = rng.SaveState();
  w.U64(s.state);
  w.U64(s.inc);
  w.Bool(s.has_gauss);
  w.F64(s.cached_gauss);
}

void ReadRngInto(Reader& r, Rng* rng) {
  Rng::State s;
  s.state = r.U64("rng.state");
  s.inc = r.U64("rng.inc");
  s.has_gauss = r.Bool("rng.has_gauss");
  s.cached_gauss = r.F64("rng.cached_gauss");
  rng->RestoreState(s);
}

void WriteTrend(Writer& w, const SlidingTrend& t) {
  w.U64(t.window());
  w.U64(t.time());
  w.U32(static_cast<uint32_t>(t.points().size()));
  for (const SlidingTrend::Point& p : t.points()) {
    w.U64(p.t);
    w.F64(p.r);
  }
  w.F64(t.sum_tr());
  w.F64(t.sum_t());
  w.F64(t.sum_r());
  w.F64(t.sum_t2());
}

void ReadTrendInto(Reader& r, SlidingTrend* t) {
  uint64_t window = r.U64("trend.window");
  uint64_t time = r.U64("trend.time");
  uint32_t count = r.Count("trend.points");
  std::deque<SlidingTrend::Point> points;
  for (uint32_t i = 0; i < count; ++i) {
    SlidingTrend::Point p;
    p.t = r.U64("trend.point.t");
    p.r = r.F64("trend.point.r");
    points.push_back(p);
  }
  double sum_tr = r.F64("trend.sum_tr");
  double sum_t = r.F64("trend.sum_t");
  double sum_r = r.F64("trend.sum_r");
  double sum_t2 = r.F64("trend.sum_t2");
  t->RestoreState(static_cast<size_t>(window), time, std::move(points), sum_tr,
                  sum_t, sum_r, sum_t2);
}

void WriteNormalizer(Writer& w, const MinMaxNormalizer& n) {
  w.F64Array(n.lower());
  w.F64Array(n.upper());
  w.Bool(n.seen());
}

void ReadNormalizerInto(Reader& r, MinMaxNormalizer* n) {
  std::vector<double> lo = r.F64Array("normalizer.lower");
  std::vector<double> hi = r.F64Array("normalizer.upper");
  bool seen = r.Bool("normalizer.seen");
  if (lo.size() != n->lower().size() || hi.size() != lo.size()) {
    r.Fail("normalizer.lower",
           "bound width " + std::to_string(lo.size()) +
               " does not match normalizer width " +
               std::to_string(n->lower().size()));
  }
  n->RestoreState(std::move(lo), std::move(hi), seen);
}

void WriteF64Deque(Writer& w, const std::deque<double>& v) {
  w.F64Array(std::vector<double>(v.begin(), v.end()));
}

std::deque<double> ReadF64Deque(Reader& r, const char* field) {
  std::vector<double> v = r.F64Array(field);
  return std::deque<double>(v.begin(), v.end());
}

void WriteBoolDeque(Writer& w, const std::deque<bool>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (bool b : v) w.U8(b ? 1 : 0);
}

std::deque<bool> ReadBoolDeque(Reader& r, const char* field) {
  uint32_t n = r.Count(field);
  std::deque<bool> out;
  for (uint32_t i = 0; i < n; ++i) out.push_back(r.U8(field) != 0);
  return out;
}

void WriteBoolVector(Writer& w, const std::vector<bool>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (bool b : v) w.U8(b ? 1 : 0);
}

std::vector<bool> ReadBoolVector(Reader& r, const char* field) {
  uint32_t n = r.Count(field);
  std::vector<bool> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(r.U8(field) != 0);
  return out;
}

void WriteI64Vector(Writer& w, const std::vector<long long>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (long long x : v) w.I64(x);
}

std::vector<long long> ReadI64Vector(Reader& r, const char* field) {
  uint32_t n = r.Count(field);
  std::vector<long long> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(r.I64(field));
  return out;
}

void WriteIntVector(Writer& w, const std::vector<int>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (int x : v) w.I64(x);
}

std::vector<int> ReadIntVector(Reader& r, const char* field) {
  uint32_t n = r.Count(field);
  std::vector<int> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(static_cast<int>(r.I64(field)));
  return out;
}

}  // namespace io
}  // namespace ccd
