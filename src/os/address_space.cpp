#include "os/address_space.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace prebake::os {

namespace {

// A VMA is going away (unmap/clear): its still-shared pages stop referencing
// the template's frames.
void release_cow_shares(Vma& vma) {
  if (vma.cow.empty() || vma.cow_shares == nullptr) return;
  const std::uint64_t held = vma.cow.count();
  *vma.cow_shares -= std::min(*vma.cow_shares, held);
  vma.cow.clear();
  vma.cow_shares.reset();
}

}  // namespace

VmaId AddressSpace::map(std::uint64_t length, Prot prot, VmaKind kind,
                        std::string name, std::shared_ptr<PageSource> source,
                        bool populate, std::string backing_path) {
  if (length == 0) throw std::invalid_argument{"AddressSpace::map: zero length"};
  const std::uint64_t rounded = (length + kPageSize - 1) / kPageSize * kPageSize;
  Vma& vma = vmas_.emplace_back();
  vma.id = next_id_++;
  vma.start = next_addr_;
  vma.length = rounded;
  vma.prot = prot;
  vma.kind = kind;
  vma.name = std::move(name);
  vma.backing_path = std::move(backing_path);
  vma.source = std::move(source);
  const auto npages = rounded / kPageSize;
  vma.present.assign(npages, populate);
  vma.dirty.assign(npages, false);
  next_addr_ += rounded + kPageSize;  // guard page gap
  return vma.id;
}

void AddressSpace::unmap(VmaId id) {
  const auto it = std::find_if(vmas_.begin(), vmas_.end(),
                               [id](const Vma& v) { return v.id == id; });
  if (it == vmas_.end()) throw std::invalid_argument{"AddressSpace::unmap: unknown vma"};
  release_cow_shares(*it);
  vmas_.erase(it);
}

void AddressSpace::clear() {
  for (Vma& vma : vmas_) release_cow_shares(vma);
  vmas_.clear();
}

const Vma* AddressSpace::find(VmaId id) const {
  const auto it = std::find_if(vmas_.begin(), vmas_.end(),
                               [id](const Vma& v) { return v.id == id; });
  return it == vmas_.end() ? nullptr : &*it;
}

Vma* AddressSpace::find_mutable(VmaId id) {
  return const_cast<Vma*>(std::as_const(*this).find(id));
}

AddressSpace::TouchResult AddressSpace::touch(VmaId id,
                                              std::uint64_t first_page,
                                              std::uint64_t pages, bool write) {
  Vma* vma = find_mutable(id);
  if (vma == nullptr) throw std::invalid_argument{"AddressSpace::touch: unknown vma"};
  if (write && !has_prot(vma->prot, Prot::kWrite))
    throw std::logic_error{"AddressSpace::touch: write to read-only vma"};
  const std::uint64_t end = std::min(first_page + pages, vma->page_count());
  TouchResult out;
  if (end <= first_page) return out;
  const std::uint64_t n = end - first_page;
  // A page first faulted after a clone is private from the start, so the
  // newly-resident and COW-break sets are disjoint (cow implies present).
  out.newly_resident = n - vma->present.count_range(first_page, n);
  if (write && !vma->cow.empty()) {
    out.cow_broken = vma->cow.count_range(first_page, n);
    if (out.cow_broken > 0) {
      if (vma->cow_shares != nullptr)
        *vma->cow_shares -= std::min(*vma->cow_shares, out.cow_broken);
      vma->cow.set_range(first_page, n, false);
    }
  }
  vma->present.set_range(first_page, n, true);
  if (write) vma->dirty.set_range(first_page, n, true);
  return out;
}

AddressSpace::TouchResult AddressSpace::touch_all(VmaId id, bool write) {
  const Vma* vma = find(id);
  if (vma == nullptr) throw std::invalid_argument{"AddressSpace::touch_all: unknown vma"};
  return touch(id, 0, vma->page_count(), write);
}

AddressSpace::TouchResult AddressSpace::populate_run(
    VmaId id, std::uint64_t first_page, std::uint64_t touch_pages,
    std::span<const std::uint8_t> payload) {
  if (!payload.empty()) {
    Vma* vma = find_mutable(id);
    if (vma == nullptr)
      throw std::invalid_argument{"AddressSpace::populate_run: unknown vma"};
    if (auto* buf = dynamic_cast<BufferSource*>(vma->source.get())) {
      std::vector<std::uint8_t>& bytes = buf->bytes();
      const std::uint64_t off = first_page * kPageSize;
      if (off < bytes.size()) {
        const std::size_t len =
            std::min<std::size_t>(payload.size(), bytes.size() - off);
        std::memcpy(bytes.data() + off, payload.data(), len);
      }
    }
  }
  return touch(id, first_page, touch_pages, /*write=*/false);
}

void AddressSpace::clear_soft_dirty() {
  for (Vma& vma : vmas_) vma.dirty.assign(vma.dirty.size(), false);
}

std::uint64_t AddressSpace::resident_pages() const {
  std::uint64_t total = 0;
  for (const Vma& vma : vmas_) total += vma.resident_pages();
  return total;
}

std::uint64_t AddressSpace::resident_bytes() const {
  return resident_pages() * kPageSize;
}

std::uint64_t AddressSpace::mapped_bytes() const {
  std::uint64_t total = 0;
  for (const Vma& vma : vmas_) total += vma.length;
  return total;
}

AddressSpace AddressSpace::clone_for_fork() const {
  // COW semantics: the child shares page sources (physical frames) and keeps
  // the same residency; descriptors are copied.
  AddressSpace child;
  child.vmas_ = vmas_;
  child.next_id_ = next_id_;
  child.next_addr_ = next_addr_;
  return child;
}

AddressSpace AddressSpace::clone_cow() {
  AddressSpace child = clone_for_fork();
  for (std::size_t i = 0; i < vmas_.size(); ++i) {
    Vma& parent = vmas_[i];
    Vma& clone = child.vmas_[i];
    if (!parent.present.any()) continue;
    if (parent.cow_shares == nullptr)
      parent.cow_shares = std::make_shared<std::uint64_t>(0);
    // Every resident page starts out shared: the clone's cow map is the
    // parent's residency map, counted against the template's share total.
    clone.cow = parent.present;
    clone.cow_shares = parent.cow_shares;
    *parent.cow_shares += parent.present.count();
  }
  return child;
}

std::uint64_t AddressSpace::cow_pages() const {
  std::uint64_t total = 0;
  for (const Vma& vma : vmas_) total += vma.cow_pages();
  return total;
}

}  // namespace prebake::os
