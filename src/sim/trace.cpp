#include "sim/trace.hpp"

#include <algorithm>
#include <utility>

namespace pico::sim {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t fnv1a(uint64_t h, const std::string& field) {
  for (unsigned char c : field) {
    h ^= c;
    h *= kFnvPrime;
  }
  // Field separator, so ("ab", "c") and ("a", "bc") hash apart.
  h ^= 0xff;
  return h * kFnvPrime;
}

/// Fibonacci multiply, keeping the high half: every input bit reaches the
/// low bits the tables probe with.
uint32_t mix(uint64_t h) {
  return static_cast<uint32_t>((h * 0x9e3779b97f4a7c15ull) >> 32);
}

uint32_t key_hash(const std::string& component, const std::string& category,
                  const std::string& label) {
  return mix(fnv1a(fnv1a(fnv1a(kFnvOffset, component), category), label));
}

/// Linear probe from `home`: the first slot that is empty or `match`es.
template <typename Slot, typename Match>
size_t probe(const std::vector<Slot>& table, uint32_t home, Match match) {
  const size_t mask = table.size() - 1;
  size_t pos = home & mask;
  while (!table[pos].empty() && !match(table[pos])) pos = (pos + 1) & mask;
  return pos;
}

/// Make room for one more entry, keeping the table's load at or under 3/4.
/// `home(slot)` recomputes an occupied slot's hash.
template <typename Slot, typename Home>
void reserve_one(std::vector<Slot>& table, size_t count, Home home) {
  if ((count + 1) * 4 <= table.size() * 3) return;
  std::vector<Slot> old = std::exchange(
      table, std::vector<Slot>(std::max<size_t>(64, table.size() * 2)));
  for (const Slot& slot : old) {
    if (slot.empty()) continue;
    table[probe(table, home(slot), [](const Slot&) { return false; })] = slot;
  }
}

}  // namespace

void Trace::add(Span span) {
  std::lock_guard lock(mu_);
  span.seq = next_seq_++;
  spans_.push_back(std::move(span));
  next_sibling_.push_back(kNone);
  const auto at = static_cast<uint32_t>(spans_.size() - 1);
  index_key(at);
  if (spans_[at].span_id != 0) index_child(at);
}

void Trace::clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
  next_sibling_.clear();
  first_by_key_.clear();
  key_count_ = 0;
  children_.clear();
  parent_count_ = 0;
}

size_t Trace::key_slot(uint32_t hash, const std::string& component,
                       const std::string& category,
                       const std::string& label) const {
  return probe(first_by_key_, hash, [&](const KeySlot& k) {
    if (k.hash != hash) return false;
    const Span& s = spans_[k.span];
    return s.component == component && s.category == category &&
           s.label == label;
  });
}

size_t Trace::parent_slot(uint64_t parent_id) const {
  return probe(children_, mix(parent_id),
               [&](const ParentSlot& p) { return p.parent == parent_id; });
}

void Trace::index_key(uint32_t at) {
  const Span& s = spans_[at];
  const uint32_t h = key_hash(s.component, s.category, s.label);
  reserve_one(first_by_key_, key_count_,
              [](const KeySlot& k) { return k.hash; });
  KeySlot& slot = first_by_key_[key_slot(h, s.component, s.category, s.label)];
  // A key already present keeps its first span: find() answers with it.
  if (slot.empty()) {
    slot = {h, at};
    ++key_count_;
  }
}

void Trace::index_child(uint32_t at) {
  const uint64_t parent = spans_[at].parent_id;
  reserve_one(children_, parent_count_,
              [](const ParentSlot& p) { return mix(p.parent); });
  ParentSlot& slot = children_[parent_slot(parent)];
  if (slot.empty()) {
    slot = {parent, at, at};
    ++parent_count_;
  } else {
    next_sibling_[slot.tail] = at;
    slot.tail = at;
  }
}

std::vector<const Span*> Trace::select(const std::string& component,
                                       const std::string& category) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (!component.empty() && s.component != component) continue;
    if (!category.empty() && s.category != category) continue;
    out.push_back(&s);
  }
  return out;
}

const Span* Trace::find(const std::string& component,
                        const std::string& category,
                        const std::string& label) const {
  if (first_by_key_.empty()) return nullptr;
  const KeySlot& slot = first_by_key_[key_slot(
      key_hash(component, category, label), component, category, label)];
  return slot.empty() ? nullptr : &spans_[slot.span];
}

std::vector<const Span*> Trace::children_of(uint64_t parent_id) const {
  std::vector<const Span*> out;
  if (children_.empty()) return out;
  const ParentSlot& slot = children_[parent_slot(parent_id)];
  for (uint32_t i = slot.head; i != kNone; i = next_sibling_[i]) {
    out.push_back(&spans_[i]);
  }
  return out;
}

std::vector<const Span*> Trace::sorted_spans() const {
  std::vector<const Span*> out;
  out.reserve(spans_.size());
  for (const auto& s : spans_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
    if (a->start.ns != b->start.ns) return a->start.ns < b->start.ns;
    if (a->span_id != b->span_id) return a->span_id < b->span_id;
    return a->seq < b->seq;
  });
  return out;
}

namespace {

/// Events sorted by timestamp; stable keeps append order for equal stamps.
std::vector<const SpanEvent*> sorted_events(const Span& s) {
  std::vector<const SpanEvent*> out;
  out.reserve(s.events.size());
  for (const auto& e : s.events) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent* a, const SpanEvent* b) {
                     return a->at.ns < b->at.ns;
                   });
  return out;
}

}  // namespace

std::string Trace::to_jsonl() const {
  std::string out;
  for (const Span* sp : sorted_spans()) {
    const Span& s = *sp;
    util::Json j = util::Json::object({
        {"component", s.component},
        {"category", s.category},
        {"label", s.label},
        {"start_s", s.start.seconds()},
        {"end_s", s.end.seconds()},
        {"attrs", s.attrs},
    });
    if (s.span_id != 0) {
      j["trace_id"] = s.trace_id;
      j["span_id"] = s.span_id;
      j["parent_id"] = s.parent_id;
    }
    if (!s.events.empty()) {
      util::Json events = util::Json::array();
      for (const SpanEvent* e : sorted_events(s)) {
        events.push_back(util::Json::object({
            {"name", e->name},
            {"at_s", e->at.seconds()},
            {"attrs", e->attrs},
        }));
      }
      j["events"] = std::move(events);
    }
    out += j.dump();
    out.push_back('\n');
  }
  return out;
}

}  // namespace pico::sim
