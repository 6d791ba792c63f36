#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/timefmt.hpp"

namespace pico::sim {

std::string to_string(SimTime t) {
  return util::format_duration(t.seconds());
}

void EventHandle::cancel() {
  if (!table_) return;
  CancelTable::Slot& slot = table_->slots[slot_];
  if (slot.generation != generation_ || slot.cancelled) return;
  slot.cancelled = true;
  ++table_->cancelled_total;
  ++table_->cancelled_pending;
}

namespace {
Engine::Backend backend_from_env() {
  const char* env = std::getenv("PICO_SCHED");
  if (env && std::strcmp(env, "heap") == 0) return Engine::Backend::Heap;
  return Engine::Backend::Wheel;
}
}  // namespace

Engine::Engine() : Engine(backend_from_env()) {}

Engine::Engine(Backend backend)
    : backend_(backend),
      cancels_(std::make_shared<EventHandle::CancelTable>()) {}

void Engine::enqueue(SimTime at, std::function<void()> fn, uint32_t slot) {
  assert(at >= now_ && "cannot schedule into the past");
  SchedEntry entry{at.ns, next_seq_++, std::move(fn), slot};
  if (backend_ == Backend::Heap) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
  } else {
    wheel_.insert(std::move(entry));
  }
  maybe_compact();
}

void Engine::release_slot(uint32_t slot) {
  EventHandle::CancelTable::Slot& s = cancels_->slots[slot];
  ++s.generation;
  s.cancelled = false;
  cancels_->free.push_back(slot);
}

EventHandle Engine::schedule_at(SimTime at, std::function<void()> fn) {
  EventHandle::CancelTable& table = *cancels_;
  uint32_t slot;
  if (!table.free.empty()) {
    slot = table.free.back();
    table.free.pop_back();
  } else {
    slot = static_cast<uint32_t>(table.slots.size());
    table.slots.emplace_back();
  }
  EventHandle handle(cancels_, slot, table.slots[slot].generation);
  enqueue(at, std::move(fn), slot);
  return handle;
}

EventHandle Engine::schedule_after(Duration delay, std::function<void()> fn) {
  assert(delay.ns >= 0);
  if (delay.ns < 0) delay.ns = 0;  // never schedule into the past
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::post_at(SimTime at, std::function<void()> fn) {
  enqueue(at, std::move(fn), SchedEntry::kNoSlot);
}

void Engine::post_after(Duration delay, std::function<void()> fn) {
  assert(delay.ns >= 0);
  if (delay.ns < 0) delay.ns = 0;
  post_at(now_ + delay, std::move(fn));
}

bool Engine::pop_next(int64_t limit_ns, SchedEntry* out) {
  if (backend_ == Backend::Wheel) return wheel_.pop_next(limit_ns, out);
  if (heap_.empty() || heap_.front().at_ns > limit_ns) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
  *out = std::move(heap_.back());
  heap_.pop_back();
  return true;
}

bool Engine::fire(SchedEntry& entry) {
  now_ = SimTime{entry.at_ns};
  if (entry.slot != SchedEntry::kNoSlot) {
    // Release before running: a cancel from inside the callback (or from a
    // handle kept past it) is a stale no-op, and the callback may reuse the
    // slot for the next event it schedules.
    bool cancelled = cancels_->slots[entry.slot].cancelled;
    release_slot(entry.slot);
    if (cancelled) {
      --cancels_->cancelled_pending;
      return false;
    }
  }
  ++events_processed_;
  entry.fn();
  return true;
}

void Engine::maybe_compact() {
  // Sweep once cancelled entries outnumber live ones, but never for small
  // queues: each sweep is O(queue), so a low floor lets a workload that
  // cancels a couple of timers per completion (10^5 flows -> 2*10^5 timer
  // cancels) trigger thousands of end-of-run sweeps. 8192 dead entries is
  // ~0.5 MB of queue slack, amortized against O(8192) reclaimed per sweep.
  size_t pending = cancels_->cancelled_pending;
  if (pending < 8192 || pending * 2 <= queue_depth()) return;
  // Each dropped entry gives its slot back, so stale handles stay no-ops.
  auto dead = [this](const SchedEntry& e) {
    if (e.slot == SchedEntry::kNoSlot || !cancels_->slots[e.slot].cancelled) {
      return false;
    }
    release_slot(e.slot);
    return true;
  };
  size_t removed;
  if (backend_ == Backend::Heap) {
    size_t before = heap_.size();
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
    removed = before - heap_.size();
    std::make_heap(heap_.begin(), heap_.end(), HeapLater{});
  } else {
    removed = wheel_.compact(dead);
  }
  cancels_->cancelled_pending -= removed;
  ++compactions_;
}

void Engine::prefetch_next() const {
#if defined(__GNUC__)
  const SchedEntry* next = nullptr;
  if (backend_ == Backend::Wheel) {
    next = wheel_.peek_due();
  } else if (!heap_.empty()) {
    next = heap_.data();
  }
  if (!next) return;
  // Hot-path functors capture the owning record's pointer as their first
  // word; read it out of the std::function's inline storage as an opaque
  // prefetch hint. For heap-allocated functors that word is the heap block
  // pointer — also worth warming. Prefetching an arbitrary value is safe
  // (it never faults), so a wrong guess costs nothing.
  void* hint;
  std::memcpy(&hint, reinterpret_cast<const char*>(&next->fn), sizeof(hint));
  __builtin_prefetch(hint);
  if (next->slot != SchedEntry::kNoSlot) {
    __builtin_prefetch(&cancels_->slots[next->slot]);
  }
#endif
}

void Engine::run_until(SimTime until) {
  SchedEntry entry;
  while (pop_next(until.ns, &entry)) {
    prefetch_next();
    fire(entry);
    maybe_compact();
  }
  if (now_ < until) now_ = until;
}

void Engine::run() {
  SchedEntry entry;
  while (pop_next(std::numeric_limits<int64_t>::max(), &entry)) {
    prefetch_next();
    fire(entry);
    maybe_compact();
  }
}

}  // namespace pico::sim
