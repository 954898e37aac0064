// The wire-format contract (io/wire.h): primitives round-trip bit for
// bit, the envelope detects torn/flipped/foreign bytes, and — the
// load-bearing half — *no* corrupted input is ever undefined behavior:
// the corruption matrix truncates a real state image at every byte
// offset and flips bytes through the whole body, asserting every
// malformed variant dies as a typed io::WireError (the CI ASan+UBSan
// jobs run this file, so an out-of-bounds read or overflow would fail
// loudly, not flakily).

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "eval/engine.h"
#include "io/state_codec.h"
#include "io/wire.h"
#include "testing_util.h"

namespace ccd {
namespace {

using test_util::ShortConfig;

// ------------------------------------------------------------- ErrnoText

TEST(ErrnoTextTest, DescribesKnownErrnoValuesNonEmpty) {
  // The exact wording is libc-specific; what matters is that the helper
  // yields a usable description without touching strerror()'s shared
  // static buffer (it's called from concurrent FrameServer handlers).
  EXPECT_FALSE(io::ErrnoText(ENOENT).empty());
  EXPECT_FALSE(io::ErrnoText(ECONNRESET).empty());
  EXPECT_NE(io::ErrnoText(ENOENT), io::ErrnoText(ECONNRESET));
}

// ------------------------------------------------------------ primitives

TEST(WireWriterReaderTest, PrimitivesRoundTripBitExactly) {
  io::Writer w;
  w.U8(0);
  w.U8(255);
  w.U32(0xDEADBEEFu);
  w.U64(std::numeric_limits<uint64_t>::max());
  w.I64(-42);
  w.I64(std::numeric_limits<int64_t>::min());
  w.F64(0.1);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(std::nan(""));
  w.Bool(true);
  w.Bool(false);
  w.String("");
  w.String("hello \x01\x02 wire");
  w.Bytes(std::string("\x00\xFF\x7F", 3));
  w.F64Array({1.5, -2.25, 1e300, 5e-324});

  io::Reader r(w.data());
  EXPECT_EQ(r.U8("a"), 0u);
  EXPECT_EQ(r.U8("b"), 255u);
  EXPECT_EQ(r.U32("c"), 0xDEADBEEFu);
  EXPECT_EQ(r.U64("d"), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(r.I64("e"), -42);
  EXPECT_EQ(r.I64("f"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.F64("g"), 0.1);
  {
    double z = r.F64("h");
    EXPECT_EQ(z, 0.0);
    EXPECT_TRUE(std::signbit(z));
  }
  EXPECT_EQ(r.F64("i"), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(r.F64("j")));  // NaN payload survives the trip.
  EXPECT_TRUE(r.Bool("k"));
  EXPECT_FALSE(r.Bool("l"));
  EXPECT_EQ(r.String("m"), "");
  EXPECT_EQ(r.String("n"), "hello \x01\x02 wire");
  EXPECT_EQ(r.Bytes("o"), std::string("\x00\xFF\x7F", 3));
  EXPECT_EQ(r.F64Array("p"), (std::vector<double>{1.5, -2.25, 1e300, 5e-324}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireWriterReaderTest, WrongTagIsATypedError) {
  io::Writer w;
  w.U32(7);
  io::Reader r(w.data());
  try {
    r.F64("the_field");
    FAIL() << "expected WireError";
  } catch (const io::WireError& e) {
    EXPECT_EQ(e.field(), "the_field");
    EXPECT_NE(std::string(e.what()).find("the_field"), std::string::npos);
  }
}

TEST(WireWriterReaderTest, SectionsNestAndMismatchedNameFails) {
  io::Writer w;
  w.BeginSection("outer");
  w.U32(1);
  w.BeginSection("inner");
  w.F64(2.5);
  w.EndSection();
  w.EndSection();

  io::Reader ok(w.data());
  ok.BeginSection("outer");
  EXPECT_EQ(ok.U32("x"), 1u);
  ok.BeginSection("inner");
  EXPECT_EQ(ok.F64("y"), 2.5);
  ok.EndSection("inner");
  ok.EndSection("outer");
  EXPECT_TRUE(ok.AtEnd());

  // The "bytes of the wrong component" failure mode.
  io::Reader wrong(w.data());
  EXPECT_THROW(wrong.BeginSection("other"), io::WireError);
}

TEST(WireWriterReaderTest, TrailingBytesInsideASectionFail) {
  io::Writer w;
  w.BeginSection("s");
  w.U32(1);
  w.U32(2);
  w.EndSection();
  io::Reader r(w.data());
  r.BeginSection("s");
  r.U32("first");
  // Leaving with an undecoded value inside means reader and writer
  // disagree on the layout — that must not pass silently.
  EXPECT_THROW(r.EndSection("s"), io::WireError);
}

TEST(WireWriterReaderTest, OversizedLengthPrefixFailsBeforeAllocating) {
  // Hand-craft [kString tag][u32 length ~ 2^31] with no payload.
  std::string bytes;
  bytes.push_back(static_cast<char>(io::Tag::kString));
  for (unsigned char b : {0x00, 0x00, 0x00, 0x80}) {
    bytes.push_back(static_cast<char>(b));
  }
  io::Reader r(bytes);
  EXPECT_THROW(r.String("s"), io::WireError);

  // Same for a count prefix: a section claiming more elements than bytes.
  io::Writer w;
  w.U32(1000000);  // Count written honestly...
  io::Reader rc(w.data());
  // ...but the buffer ends right after it: more elements than bytes left.
  EXPECT_THROW(rc.Count("n"), io::WireError);
}

TEST(WireWriterReaderTest, UnbalancedWriterIsACallerBug) {
  io::Writer w;
  w.BeginSection("open");
  EXPECT_THROW(w.data(), std::logic_error);
  io::Writer w2;
  EXPECT_THROW(w2.EndSection(), std::logic_error);
}

TEST(WireCrcTest, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  const std::string check = "123456789";
  EXPECT_EQ(io::Crc32(check.data(), check.size()), 0xCBF43926u);
  // Chaining two halves equals one pass.
  uint32_t half = io::Crc32(check.data(), 4);
  EXPECT_EQ(io::Crc32(check.data() + 4, 5, half), 0xCBF43926u);
}

// -------------------------------------------------------------- envelope

TEST(WireEnvelopeTest, SealOpenRoundTripsAndRejectsTampering) {
  io::Writer w;
  w.String("payload");
  const std::string sealed = io::SealEnvelope(w.data());
  EXPECT_EQ(io::OpenEnvelope(sealed), w.data());

  // Flipped CRC byte.
  std::string bad = sealed;
  bad.back() = static_cast<char>(bad.back() ^ 0x01);
  EXPECT_THROW(io::OpenEnvelope(bad), io::WireError);

  // Flipped body bit (CRC catches it).
  bad = sealed;
  bad[9] = static_cast<char>(bad[9] ^ 0x40);
  EXPECT_THROW(io::OpenEnvelope(bad), io::WireError);

  // Wrong format version, newer or older — blobs written before the last
  // bump included (CRC recomputed so only the version check trips).
  for (const uint32_t version :
       {io::kFormatVersion + 1, io::kFormatVersion - 1}) {
    bad = sealed;
    bad[4] = static_cast<char>(version);
    uint32_t crc = io::Crc32(bad.data(), bad.size() - 4);
    for (int i = 0; i < 4; ++i) {
      bad[bad.size() - 4 + static_cast<size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    try {
      io::OpenEnvelope(bad);
      FAIL() << "expected WireError";
    } catch (const io::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }

  // Foreign magic.
  bad = sealed;
  bad[0] = 'X';
  EXPECT_THROW(io::OpenEnvelope(bad), io::WireError);

  // Too short to even hold the envelope.
  EXPECT_THROW(io::OpenEnvelope(std::string("CCD")), io::WireError);
}

// ----------------------------------------------- component-name mismatch

TEST(ComponentStateTest, LoadingBytesOfAnotherComponentFailsTyped) {
  StreamSchema schema(4, 3, "wire-test");
  auto ddm = api::MakeDetector("DDM", schema, 7);
  Instance inst;
  inst.features = {0.5, 0.5, 0.5, 0.5};
  inst.label = 0;
  const std::vector<double> scores{1.0, 0.0, 0.0};
  for (int i = 0; i < 100; ++i) ddm->Observe(inst, i % 3 == 0 ? 1 : 0, scores);

  io::Writer w;
  ddm->SaveState(w);

  auto eddm = api::MakeDetector("EDDM", schema, 7);
  io::Reader r(w.data());
  try {
    eddm->LoadState(r);
    FAIL() << "expected WireError";
  } catch (const io::WireError&) {
    // Section name "DDM" != "EDDM": typed rejection, no partial state.
  }
}

TEST(ComponentStateTest, UnimplementedSaveStateNamesTheComponent) {
  StreamSchema schema(4, 3, "wire-test");
  test_util::FrozenClassifier frozen(schema);
  io::Writer w;
  try {
    frozen.SaveState(w);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("frozen"), std::string::npos);
  }
}

// ------------------------------------------------------ corruption matrix

/// A small but *real* state image: a DDM-backed engine run far enough to
/// populate the metric window, drift log and counters.
std::string MakeSmallImage() {
  auto stream = test_util::MakeRbfDriftStream(150, 23);
  const std::vector<Instance> data = Take(stream.get(), 300);

  PrequentialConfig cfg = ShortConfig();
  cfg.metric_window = 50;
  cfg.eval_interval = 25;
  cfg.warmup = 40;

  auto classifier = api::MakeClassifier("naive-bayes", stream->schema(), 42);
  auto detector = api::MakeDetector("DDM", stream->schema(), 42);
  MonitorEngine engine(stream->schema(), classifier.get(), detector.get(), cfg);
  for (const Instance& inst : data) engine.Feed(inst);

  io::ShardIdentity identity;
  identity.schema = stream->schema();
  identity.classifier = "naive-bayes";
  identity.detector = "DDM";
  identity.seed = 42;
  identity.config = cfg;
  return io::EncodeStateImage(identity, engine.Snapshot(), *classifier,
                              detector.get());
}

TEST(CorruptionMatrixTest, TheImageItselfDecodes) {
  const std::string bytes = MakeSmallImage();
  io::StateImage image = io::DecodeStateImage(bytes);
  EXPECT_EQ(image.identity.classifier, "naive-bayes");
  EXPECT_EQ(image.identity.detector, "DDM");
  EXPECT_GT(image.snapshot.position, 0u);
  ASSERT_NE(image.classifier, nullptr);
  ASSERT_NE(image.detector, nullptr);
}

// Truncation at every byte offset of the sealed file: every prefix must
// be rejected as WireError (the CRC trailer catches them all) — never a
// crash, never a silently partial image.
TEST(CorruptionMatrixTest, EveryFileTruncationIsATypedError) {
  const std::string bytes = MakeSmallImage();
  ASSERT_GT(bytes.size(), 16u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(io::DecodeStateImage(bytes.substr(0, len)), io::WireError)
        << "prefix length " << len;
  }
}

// Truncation at every byte offset of the *body*, re-sealed so the
// envelope passes and the Reader's own bounds checks take the hit. This
// is the matrix that would expose an out-of-bounds read under ASan: a
// reader that trusted any length or count would walk off the buffer.
TEST(CorruptionMatrixTest, EveryBodyTruncationIsATypedError) {
  const std::string body = io::OpenEnvelope(MakeSmallImage());
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_THROW(io::DecodeStateImage(io::SealEnvelope(body.substr(0, len))),
                 io::WireError)
        << "body prefix length " << len;
  }
}

// Byte flips through the whole body (re-sealed): a flipped byte may land
// in a double payload and decode fine, but it must only ever decode fine
// or throw WireError — nothing else escapes, nothing crashes.
TEST(CorruptionMatrixTest, BodyByteFlipsNeverEscapeTheTypedError) {
  const std::string body = io::OpenEnvelope(MakeSmallImage());
  for (size_t i = 0; i < body.size(); ++i) {
    std::string flipped = body;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    try {
      io::StateImage image = io::DecodeStateImage(io::SealEnvelope(flipped));
      // A flip confined to a value payload is legitimate data.
    } catch (const io::WireError&) {
      // The typed rejection — the only acceptable failure.
    }
  }
}

TEST(CorruptionMatrixTest, UnknownRegistryNameFailsAsWireError) {
  const std::string body = io::OpenEnvelope(MakeSmallImage());
  // "naive-bayes" appears as a length-prefixed string; corrupt one byte
  // of the *name* so the registry lookup fails.
  const size_t at = body.find("naive-bayes");
  ASSERT_NE(at, std::string::npos);
  std::string renamed = body;
  renamed[at] = 'x';
  EXPECT_THROW(io::DecodeStateImage(io::SealEnvelope(renamed)), io::WireError);
}

}  // namespace
}  // namespace ccd
