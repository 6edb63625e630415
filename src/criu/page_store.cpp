#include "criu/page_store.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace prebake::criu {

namespace {

// Home slot of `digest` in a table of 2^(64 - shift) slots. Fibonacci
// hashing: the multiply spreads low-entropy keys (small test digests,
// counters) over the whole table before the top bits pick the slot.
std::size_t home_slot(std::uint64_t digest, unsigned shift) {
  return static_cast<std::size_t>((digest * 0x9E3779B97F4A7C15ull) >> shift);
}

// The digests one missing_unique_pages call has already counted: a flat
// per-thread set whose slots carry the call's epoch, so every call starts
// empty without clearing the array and, once sized, without allocating.
class SeenSet {
 public:
  // Start a new call that inserts at most `max_keys` keys (load <= 1/2).
  void reset(std::size_t max_keys) {
    std::size_t cap = 16;
    while (cap < max_keys * 2) cap *= 2;
    if (cap > slots_.size()) {
      slots_.assign(cap, Entry{});
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // wrapped: stale epochs could alias the new one
      std::fill(slots_.begin(), slots_.end(), Entry{});
      epoch_ = 1;
    }
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  }
  // True if `key` was not yet in the set.
  bool insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home_slot(key, shift_);; i = (i + 1) & mask) {
      Entry& e = slots_[i];
      if (e.epoch != epoch_) {
        e = Entry{key, epoch_};
        return true;
      }
      if (e.key == key) return false;
    }
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;  // 0 = never used
  };
  std::vector<Entry> slots_;
  std::uint32_t epoch_ = 0;
  unsigned shift_ = 64;
};

}  // namespace

const PageStore::Slot* PageStore::find(std::uint64_t digest) const {
  if (size_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home_slot(digest, shift_);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.used) return nullptr;
    if (s.digest == digest) return &s;
  }
}

PageStore::Slot& PageStore::find_or_insert(std::uint64_t digest,
                                           bool& inserted) {
  inserted = false;
  if (Slot* s = find(digest)) return *s;
  if ((size_ + 1) * 8 > slots_.size() * 7) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(digest, shift_);
  while (slots_[i].used) i = (i + 1) & mask;
  slots_[i] = Slot{digest, 0, 0, true};
  ++size_;
  inserted = true;
  return slots_[i];
}

void PageStore::grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(slots_.empty() ? 16 : slots_.size() * 2));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used) continue;
    std::size_t i = home_slot(s.digest, shift_);
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void PageStore::erase(std::uint64_t digest) {
  const std::size_t mask = slots_.size() - 1;
  auto hole = static_cast<std::size_t>(find(digest) - slots_.data());
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically after the hole (moving it would put it
  // before its home, where lookups never look).
  for (std::size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    const std::size_t home = home_slot(slots_[j].digest, shift_);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

std::uint64_t PageStore::missing_unique_pages(
    std::span<const std::uint64_t> digests) const {
  thread_local SeenSet seen;
  seen.reset(digests.size());
  std::uint64_t missing = 0;
  for (const std::uint64_t d : digests)
    if (!contains(d) && seen.insert(d)) ++missing;
  return missing;
}

std::uint64_t PageStore::insert(std::span<const std::uint64_t> digests) {
  ++tick_;
  std::uint64_t fresh = 0;
  for (const std::uint64_t d : digests) {
    bool inserted = false;
    find_or_insert(d, inserted).tick = tick_;
    if (inserted) ++fresh;
  }
  evict_to_fit();
  return fresh;
}

void PageStore::pin(std::span<const std::uint64_t> digests) {
  ++tick_;
  for (const std::uint64_t d : digests) {
    bool inserted = false;
    Slot& s = find_or_insert(d, inserted);
    ++s.refcount;
    s.tick = tick_;
  }
}

void PageStore::unpin(std::span<const std::uint64_t> digests) {
  for (const std::uint64_t d : digests) {
    Slot* const s = find(d);
    if (s == nullptr || s->refcount == 0)
      throw std::logic_error{"PageStore::unpin: refcount underflow"};
    --s->refcount;
  }
  evict_to_fit();
}

std::uint32_t PageStore::refcount(std::uint64_t digest) const {
  const Slot* const s = find(digest);
  return s == nullptr ? 0 : s->refcount;
}

void PageStore::set_capacity(std::uint64_t bytes) {
  capacity_ = bytes;
  evict_to_fit();
}

void PageStore::evict_to_fit() {
  if (capacity_ == 0 || stored_bytes() <= capacity_) return;
  // Unpinned pages only, least recently inserted/pinned first. Collect and
  // sort (digest breaks tick ties): digests are unique, so the order is a
  // function of the records alone, never of where the table put them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;  // (tick, digest)
  for (const Slot& s : slots_)
    if (s.used && s.refcount == 0) victims.emplace_back(s.tick, s.digest);
  std::sort(victims.begin(), victims.end());
  for (const auto& [tick, digest] : victims) {
    if (stored_bytes() <= capacity_) break;
    erase(digest);
    ++stats_.evicted_pages;
  }
}

const PageStore::TemplateInfo* PageStore::find_template(
    const std::string& key) const {
  const auto it = templates_.find(key);
  return it == templates_.end() ? nullptr : &it->second;
}

void PageStore::register_template(const std::string& key, TemplateInfo info) {
  if (templates_.contains(key))
    throw std::logic_error{"PageStore::register_template: duplicate key " + key};
  pin(info.digests);
  ++stats_.templates_materialized;
  if (!info.base_key.empty()) {
    const auto base = templates_.find(info.base_key);
    if (base != templates_.end()) ++base->second.dependents;
  }
  templates_.emplace(key, std::move(info));
}

os::Pid PageStore::drop_template(const std::string& key) {
  const auto it = templates_.find(key);
  if (it == templates_.end()) return os::kNoPid;
  const os::Pid pid = it->second.pid;
  if (!it->second.base_key.empty()) {
    const auto base = templates_.find(it->second.base_key);
    if (base != templates_.end() && base->second.dependents > 0)
      --base->second.dependents;
  }
  // Move the digests out before erasing; unpin may evict.
  const std::vector<std::uint64_t> digests = std::move(it->second.digests);
  templates_.erase(it);
  unpin(digests);
  return pid;
}

std::uint32_t PageStore::template_dependents(const std::string& key) const {
  const auto it = templates_.find(key);
  return it == templates_.end() ? 0 : it->second.dependents;
}

std::vector<os::Pid> PageStore::drop_all_templates() {
  std::vector<os::Pid> pids;
  while (!templates_.empty()) {
    const os::Pid pid = drop_template(templates_.begin()->first);
    if (pid != os::kNoPid) pids.push_back(pid);
  }
  return pids;
}

void PageStore::clear_pages() {
  if (!templates_.empty())
    throw std::logic_error{"PageStore::clear_pages: templates still registered"};
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

}  // namespace prebake::criu
