#ifndef CCD_RUNTIME_ROUTER_H_
#define CCD_RUNTIME_ROUTER_H_

#include <cstdint>

#include "runtime/sync.h"

namespace ccd {
namespace runtime {

/// Concurrency spine of a sharded serving surface: the slot table of a
/// striped-lock discipline, with the discipline itself stated in Thread
/// Safety Analysis annotations rather than prose.
///
/// The Router owns the *table capability* (TableMutex()) and the routing
/// math (a key goes to slot HashKey(key) % slots); the per-slot mutexes
/// and the payload live in the layer above (api::ShardedMonitor keeps
/// each shard's mutex inside the shard it guards, where CCD_GUARDED_BY
/// can see it). The lock order is
/// table-then-slot everywhere, and slot-holding code holds one slot at a
/// time, so the discipline is deadlock-free by construction — provided
/// slot-holding code never re-enters the Router (see the reentrancy notes
/// on api::ShardedMonitor's callbacks).
///
/// Annotated contract — violations are compile errors under clang
/// (-Wthread-safety; proven by tests/negative_compile/):
///  * RouteKey()/RequireSlot() CCD_REQUIRES_SHARED(table): routing reads
///    the slot count, so a reader hold on the table pins it for as long as
///    the hold lasts — a whole batch routes over one table. Pushes routed
///    to different slots run fully in parallel; two pushes to the same
///    slot serialize on that slot's mutex only.
///  * AddSlot() CCD_REQUIRES(table) and takes the caller's WriterLock by
///    reference: growing the table demands *this* router's exclusive
///    table lock — every in-flight reader has drained, none can start.
///    The WriterLock parameter makes the requirement part of the
///    signature on every compiler; clang additionally rejects callers
///    that don't hold it.
class Router {
 public:
  /// `slots` is clamped to >= 1.
  explicit Router(int slots);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Deterministic 64-bit mix (splitmix64 finalizer): pure integer
  /// arithmetic, so key placement is stable across platforms, runs and
  /// processes — the published contract tests and external balancers can
  /// compute shard ownership with.
  static uint64_t HashKey(uint64_t key);

  /// The slot a key routes to in a `slots`-wide table:
  /// HashKey(key) % slots. Exposed statically so a caller can partition a
  /// keyed stream exactly as a live Router would (the differential tests
  /// rely on this).
  static int KeySlot(uint64_t key, int slots);

  /// The table capability. Readers (ReaderLock) route and access existing
  /// slots; the exclusive writer (WriterLock) owns the reshard window —
  /// AddSlot() and payload swaps in the layer above.
  SharedMutex& TableMutex() const CCD_RETURN_CAPABILITY(table_mutex_) {
    return table_mutex_;
  }

  /// Current slot count. Takes the table lock; racing an AddSlot() the
  /// caller may see either count, so don't use the result to route —
  /// hold a ReaderLock and call RouteKey() instead.
  int slots() const CCD_EXCLUDES(table_mutex_);

  /// The slot `key` routes to in the current table. The caller's shared
  /// table hold keeps the result valid.
  int RouteKey(uint64_t key) const CCD_REQUIRES_SHARED(table_mutex_);

  /// Bounds-checks a caller-supplied slot index (e.g. the shard id a
  /// Prediction ticket names) against the current table; throws
  /// std::out_of_range when it is not in the table.
  void RequireSlot(int slot) const CCD_REQUIRES_SHARED(table_mutex_);

  /// Appends one slot under the exclusive table lock and returns its
  /// index. Subsequent keyed routes hash over the grown table. Throws
  /// std::logic_error when `table` locks anything but this router's own
  /// table mutex (the runtime half of the contract; clang enforces the
  /// static half).
  int AddSlot(const WriterLock& table) CCD_REQUIRES(table_mutex_);

 private:
  mutable SharedMutex table_mutex_;
  int slots_ CCD_GUARDED_BY(table_mutex_);
};

}  // namespace runtime
}  // namespace ccd

#endif  // CCD_RUNTIME_ROUTER_H_
