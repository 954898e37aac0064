#include "runtime/router.h"

#include <stdexcept>
#include <string>

namespace ccd {
namespace runtime {

Router::Router(int slots) : slots_(slots < 1 ? 1 : slots) {}

uint64_t Router::HashKey(uint64_t key) {
  // splitmix64 finalizer (Steele, Lea & Flood): a full-avalanche bijection
  // on 64-bit integers, so sequential ids spread uniformly over slots.
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Router::KeySlot(uint64_t key, int slots) {
  if (slots < 1) {
    throw std::invalid_argument("Router::KeySlot: slots must be >= 1, got " +
                                std::to_string(slots));
  }
  return static_cast<int>(HashKey(key) % static_cast<uint64_t>(slots));
}

int Router::slots() const {
  ReaderLock lock(&table_mutex_);
  return slots_;
}

int Router::RouteKey(uint64_t key) const { return KeySlot(key, slots_); }

void Router::RequireSlot(int slot) const {
  if (slot < 0 || slot >= slots_) {
    throw std::out_of_range("Router::RequireSlot: slot " +
                            std::to_string(slot) + " not in a table of " +
                            std::to_string(slots_) + " slots");
  }
}

int Router::AddSlot(const WriterLock& table) {
  if (table.mutex() != &table_mutex_) {
    throw std::logic_error(
        "Router::AddSlot: requires this router's own exclusive table lock");
  }
  return slots_++;
}

}  // namespace runtime
}  // namespace ccd
