#ifndef CCD_RUNTIME_MPSC_QUEUE_H_
#define CCD_RUNTIME_MPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccd {
namespace runtime {

/// Bounded lock-free multi-producer / single-consumer queue (Vyukov's
/// bounded-MPMC cell design, used here with one consumer). No serving
/// path uses it: every ShardedMonitor push takes the shard lock. It is
/// kept for perfbench's isolated `runtime.mpsc_ns` row.
///
/// Properties:
///  * TryPush() never blocks and never allocates after a cell has held a
///    value once — cells store T by *copy assignment*, so a std::vector
///    payload reuses its heap buffer on every lap around the ring.
///  * A full queue fails the push (returns false) instead of growing:
///    backpressure is explicit, the memory bound is hard.
///  * FIFO per producer, and globally FIFO in ticket order: consumers see
///    entries in the order the producers won their cells.
///  * TryPop() is single-consumer only — callers must serialize it
///    externally. It pops by copy assignment into a caller-owned slot for
///    the same capacity-reuse reason.
template <typename T>
class MpscQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 1).
  explicit MpscQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Enqueues a copy of `value`; false when the queue is full. Safe from
  /// any number of threads.
  bool TryPush(const T& value) {
    Cell* cell;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // The cell one lap behind is still occupied: full.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;  // Copy-assign: the cell's buffers are reused.
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Dequeues the oldest entry into `*out` (copy assignment); false when
  /// the queue is empty or the head entry's producer has claimed its cell
  /// but not finished writing it (it will succeed once the write lands —
  /// FIFO is never reordered around a slow producer). Single consumer.
  bool TryPop(T* out) {
    Cell& cell = cells_[head_ & mask_];
    const size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(head_ + 1) != 0) {
      return false;
    }
    *out = cell.value;
    cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

 private:
  struct Cell {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  std::atomic<size_t> tail_{0};  ///< Next producer ticket.
  size_t head_ = 0;  ///< Consumer cursor; guarded by the external consumer
                     ///< serialization.
};

}  // namespace runtime
}  // namespace ccd

#endif  // CCD_RUNTIME_MPSC_QUEUE_H_
