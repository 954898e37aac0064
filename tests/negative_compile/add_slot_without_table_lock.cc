// Negative-compile case: Router::AddSlot without this router's exclusive
// table lock.
//
// AddSlot is annotated CCD_REQUIRES(table_mutex_): growing the routing
// table while readers hold shared table locks would tear RouteKey's
// modulus out from under them. The contract has two halves:
//   * compile time (this file): clang rejects the call when the caller
//     does not hold an exclusive lock on *this* router's table —
//     holding a different router's lock does not satisfy it.
//   * runtime (tests/router_test.cc): on non-clang builds the
//     WriterLock identity check throws std::logic_error.
//
// Control build: AddSlot under this router's own WriterLock — compiles.
// -DCCD_EXPECT_VIOLATION=1: AddSlot under a *different* router's
// WriterLock — must fail with -Werror=thread-safety.

#include "runtime/router.h"
#include "runtime/sync.h"

int GrowTable() {
  ccd::runtime::Router router(2);
#if defined(CCD_EXPECT_VIOLATION)
  ccd::runtime::Router other(1);
  ccd::runtime::WriterLock table(&other.TableMutex());  // wrong router!
  return router.AddSlot(table);
#else
  ccd::runtime::WriterLock table(&router.TableMutex());
  return router.AddSlot(table);
#endif
}
