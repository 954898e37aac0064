#ifndef CCD_IO_WIRE_H_
#define CCD_IO_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccd {
namespace io {

/// Error type of the whole io layer: every malformed, truncated or
/// corrupted input — wire decoding, snapshot files, socket frames —
/// surfaces as a WireError naming the offending field and the byte offset
/// it was detected at. Decoding hostile bytes must *only* ever throw this
/// (never UB, never a silent partial state); tests/io_wire_test.cc holds
/// the codec to that with a corruption matrix.
class WireError : public std::runtime_error {
 public:
  WireError(std::string field, size_t offset, const std::string& message)
      : std::runtime_error("io::WireError at offset " +
                           std::to_string(offset) + " (field '" + field +
                           "'): " + message),
        field_(std::move(field)),
        offset_(offset) {}

  /// The field (or section / file) being decoded when the error surfaced.
  const std::string& field() const { return field_; }
  /// Byte offset into the buffer (or a file-level marker) at detection.
  size_t offset() const { return offset_; }

 private:
  std::string field_;
  size_t offset_;
};

/// Per-value type tags: every primitive on the wire is preceded by one tag
/// byte, so a reader that expects a u64 where a f64 was written fails with
/// a typed WireError instead of reinterpreting bytes. Tag values are wire
/// contract — never renumber, only append.
enum class Tag : uint8_t {
  kU8 = 0x01,
  kU32 = 0x02,
  kU64 = 0x03,
  kI64 = 0x04,
  kF64 = 0x05,
  kBool = 0x06,
  kString = 0x07,
  kBytes = 0x08,
  kF64Array = 0x09,  ///< u32 count + packed 8-byte doubles (bulk weights).
  kSection = 0x0A,   ///< Named, length-prefixed nested block.
};

const char* TagName(Tag tag);

/// Hard cap on any single length prefix (strings, byte blobs, arrays,
/// sections, frames). An "oversized length prefix" in a corrupted input
/// fails against this or against the remaining-byte count — whichever is
/// smaller — before any allocation happens.
constexpr uint32_t kMaxLengthPrefix = 256u * 1024u * 1024u;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes.
/// Chainable: pass a previous result as `seed` to continue a running CRC.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);
uint32_t Crc32(const std::string& bytes);

/// Append-only binary encoder of the versioned wire format: every value is
/// tagged (see Tag) and multi-byte payloads are pinned little-endian byte
/// by byte, so encodings are identical across platforms. F64 round-trips
/// bit-exactly (the payload is the IEEE-754 bit pattern, NaNs included) —
/// the property the bit-identical restore contract rests on.
class Writer {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v);
  void F64(double v);
  void Bool(bool v);
  void String(const std::string& v);
  void Bytes(const std::string& v);
  /// Bulk doubles: one tag + count prefix, packed payload — the encoding
  /// for weight matrices and score vectors.
  void F64Array(const std::vector<double>& v);

  /// Opens a named, length-prefixed section; close with EndSection().
  /// Sections nest. The length prefix lets a reader bound every nested
  /// read, so truncation at any section boundary is a typed error.
  void BeginSection(const std::string& name);
  void EndSection();

  /// Encoded bytes so far. Throws std::logic_error when a section is
  /// still open (an unbalanced writer is a caller bug, not data).
  const std::string& data() const;
  /// Moves the buffer out; the writer is reusable (empty) afterwards.
  std::string Release();

 private:
  void PutTag(Tag tag);
  void PutRawU32(uint32_t v);
  void PutRawU64(uint64_t v);

  std::string buf_;
  std::vector<size_t> open_sections_;  ///< Offsets of length placeholders.
};

/// Bounds-checked decoder over an externally owned byte buffer (the buffer
/// must outlive the reader). Every accessor takes the field name it is
/// decoding; any mismatch — truncation, wrong tag, oversized length
/// prefix, section overrun — throws WireError naming that field and the
/// current offset. No read ever touches bytes past the buffer (or past the
/// innermost section's declared length), so corrupted input cannot cause
/// out-of-bounds access.
class Reader {
 public:
  explicit Reader(const std::string& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8(const char* field);
  uint32_t U32(const char* field);
  uint64_t U64(const char* field);
  int64_t I64(const char* field);
  double F64(const char* field);
  bool Bool(const char* field);
  std::string String(const char* field);
  std::string Bytes(const char* field);
  std::vector<double> F64Array(const char* field);

  /// Enters the section `name`; a section with any other name (or any
  /// non-section tag) is a WireError — the "wrong component name" failure
  /// mode of a snapshot whose bytes belong to a different component.
  void BeginSection(const char* name);
  /// Leaves the innermost section; trailing undecoded bytes inside it are
  /// an error (they mean reader and writer disagree on the layout).
  void EndSection(const char* name);

  /// Decoded-size helper for count prefixes: reads a U32 and validates it
  /// against `max` (element-count sanity for containers).
  uint32_t Count(const char* field, uint32_t max = kMaxLengthPrefix);

  size_t offset() const { return pos_; }
  bool AtEnd() const { return pos_ == Limit(); }
  /// Throws unless the buffer (or innermost section) is fully consumed.
  void ExpectEnd(const char* what) const;

  [[noreturn]] void Fail(const char* field, const std::string& message) const {
    throw WireError(field, pos_, message);
  }

 private:
  size_t Limit() const {
    return section_ends_.empty() ? size_ : section_ends_.back();
  }
  /// Bounds check against the innermost limit, then advance.
  const char* Need(size_t n, const char* field);
  void RequireTag(Tag expected, const char* field);
  uint32_t RawU32(const char* field);
  uint64_t RawU64(const char* field);
  /// Validated length prefix: <= kMaxLengthPrefix and within the limit.
  uint32_t LengthPrefix(const char* field);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  std::vector<size_t> section_ends_;
};

// ------------------------------------------------------------- envelope

/// Format version of everything the io layer writes (state images,
/// manifests). Bump on any incompatible layout change; readers reject
/// other versions with a typed error instead of misparsing.
constexpr uint32_t kFormatVersion = 4;

/// File/blob magic: "CCDS" little-endian.
constexpr uint32_t kMagic = 0x53444343u;

/// Wraps `body` in the self-checking envelope every persisted or shipped
/// blob uses: [magic u32][version u32][body][crc32 u32 over all prior
/// bytes], all little-endian. The trailer CRC makes torn writes and
/// bit flips detectable without trusting any length field.
std::string SealEnvelope(const std::string& body);

/// Validates magic, version and CRC and returns the body. Throws
/// WireError on a short buffer, foreign magic, unsupported version or a
/// CRC mismatch — the file-corruption half of the corruption matrix.
std::string OpenEnvelope(const std::string& bytes);

/// Thread-safe strerror: the message for `err` (an errno value) without
/// the static buffer std::strerror shares between threads — the io layer
/// reports errno from concurrently-serving FrameServer handlers, where
/// strerror's buffer is a data race (flagged by clang-tidy's
/// concurrency-mt-unsafe).
std::string ErrnoText(int err);

}  // namespace io
}  // namespace ccd

#endif  // CCD_IO_WIRE_H_
