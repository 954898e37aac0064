#ifndef CCD_STREAM_STREAM_H_
#define CCD_STREAM_STREAM_H_

#include <memory>
#include <vector>

#include "stream/instance.h"

namespace ccd {

/// Abstract source of a (conceptually unbounded) sequence of labelled
/// instances <S_1, S_2, ...>. Implementations include synthetic concept
/// generators, drift/imbalance wrappers, and in-memory replay streams.
///
/// A stream is one way — the offline way — of driving evaluation: the
/// RunPrequential adapter drains it into a MonitorEngine with immediate
/// labels. Live deployments skip streams entirely and push instances
/// (and late labels) into api::ShardedMonitor themselves.
class InstanceStream {
 public:
  virtual ~InstanceStream() = default;

  /// Schema of the emitted instances; constant over the stream's lifetime
  /// (concept drift changes distributions, never arity).
  virtual const StreamSchema& schema() const = 0;

  /// Produces the next instance. Streams in this library are unbounded; the
  /// caller decides how many instances to draw.
  virtual Instance Next() = 0;

  /// Index of the next instance to be emitted (0-based); useful for
  /// positioning drift events in tests.
  virtual uint64_t position() const = 0;
};

/// Replays a fixed in-memory sequence, optionally looping. Used by tests and
/// by harnesses that need to evaluate several detectors on the exact same
/// realization of a stochastic stream.
class VectorStream : public InstanceStream {
 public:
  VectorStream(StreamSchema schema, std::vector<Instance> data, bool loop = false)
      : schema_(std::move(schema)), data_(std::move(data)), loop_(loop) {}

  const StreamSchema& schema() const override { return schema_; }

  Instance Next() override {
    Instance out = data_[static_cast<size_t>(pos_ % data_.size())];
    ++pos_;
    if (!loop_ && pos_ > data_.size()) pos_ = data_.size();
    return out;
  }

  uint64_t position() const override { return pos_; }

  size_t size() const { return data_.size(); }

 private:
  StreamSchema schema_;
  std::vector<Instance> data_;
  bool loop_ = false;
  uint64_t pos_ = 0;
};

/// Materializes the next `n` instances of `stream` into memory.
std::vector<Instance> Take(InstanceStream* stream, size_t n);

}  // namespace ccd

#endif  // CCD_STREAM_STREAM_H_
