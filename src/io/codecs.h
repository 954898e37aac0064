#ifndef CCD_IO_CODECS_H_
#define CCD_IO_CODECS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "detectors/detector.h"
#include "io/wire.h"
#include "stats/trend.h"
#include "stats/welford.h"
#include "stream/instance.h"
#include "stream/normalizer.h"
#include "utils/rng.h"

namespace ccd {
namespace io {

/// Logical version of the per-component field schemas — the *meaning* of
/// the bytes each SaveState() emits, as opposed to wire.h's
/// kFormatVersion which versions the tag/envelope encoding itself. Bump
/// this whenever any serialized class's field set or wire call sequence
/// changes, then re-pin the manifest with
/// `python3 tools/state_audit.py --update`; the static-analysis CI job
/// fails any schema change that skips the bump (schema-drift gate
/// against tools/wire_schema.json).
inline constexpr uint32_t kStateSchemaVersion = 3;

/// Small-type codecs shared by every component's SaveState()/LoadState().
/// Each pair is an exact inverse: Read*(Write*(x)) reproduces x bit for
/// bit, including the floating-point internals accessor-exposed for this
/// purpose (Welford m2, SlidingTrend running sums, Rng Gaussian cache).
/// Readers validate as they go and throw WireError on malformed input.

void WriteInstance(Writer& w, const Instance& x);
Instance ReadInstance(Reader& r);

void WriteDetectorState(Writer& w, DetectorState s);
DetectorState ReadDetectorState(Reader& r, const char* field);

void WriteWelford(Writer& w, const Welford& s);
Welford ReadWelford(Reader& r);

void WriteRng(Writer& w, const Rng& rng);
void ReadRngInto(Reader& r, Rng* rng);

void WriteTrend(Writer& w, const SlidingTrend& t);
void ReadTrendInto(Reader& r, SlidingTrend* t);

void WriteNormalizer(Writer& w, const MinMaxNormalizer& n);
void ReadNormalizerInto(Reader& r, MinMaxNormalizer* n);

/// deque<double> / vector-of-bool style helpers used by windowed detectors.
void WriteF64Deque(Writer& w, const std::deque<double>& v);
std::deque<double> ReadF64Deque(Reader& r, const char* field);

void WriteBoolDeque(Writer& w, const std::deque<bool>& v);
std::deque<bool> ReadBoolDeque(Reader& r, const char* field);

void WriteBoolVector(Writer& w, const std::vector<bool>& v);
std::vector<bool> ReadBoolVector(Reader& r, const char* field);

void WriteI64Vector(Writer& w, const std::vector<long long>& v);
std::vector<long long> ReadI64Vector(Reader& r, const char* field);

void WriteIntVector(Writer& w, const std::vector<int>& v);
std::vector<int> ReadIntVector(Reader& r, const char* field);

}  // namespace io
}  // namespace ccd

#endif  // CCD_IO_CODECS_H_
