// Simulated virtual address space: VMAs made of 4 KiB pages.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "os/page_bitmap.hpp"
#include "os/page_source.hpp"

namespace prebake::os {

enum class Prot : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kExec = 4,
  kReadWrite = kRead | kWrite,
  kReadExec = kRead | kExec,
};
constexpr Prot operator|(Prot a, Prot b) {
  return static_cast<Prot>(static_cast<std::uint8_t>(a) |
                           static_cast<std::uint8_t>(b));
}
constexpr bool has_prot(Prot p, Prot bit) {
  return (static_cast<std::uint8_t>(p) & static_cast<std::uint8_t>(bit)) != 0;
}

enum class VmaKind : std::uint8_t { kAnon, kFileBacked };

using VmaId = std::uint32_t;

struct Vma {
  VmaId id = 0;
  std::uint64_t start = 0;   // virtual address, page aligned
  std::uint64_t length = 0;  // bytes, page aligned
  Prot prot = Prot::kReadWrite;
  VmaKind kind = VmaKind::kAnon;
  std::string name;          // e.g. "[heap]", "/usr/lib/jvm/libjvm.so"
  std::string backing_path;  // for kFileBacked
  std::shared_ptr<PageSource> source;
  PageBitmap present;  // one bit per page
  PageBitmap dirty;    // set on write faults; cleared by soft-dirty reset
  // Tracked COW sharing (template-clone restore, DESIGN.md §6f). `cow` marks
  // pages whose frame is shared with the clone source: a write fault copies
  // the page (the kernel charges memcpy_cost(page)) and clears the bit.
  // `cow_shares` is the count of outstanding page shares against the template
  // VMA's frames, one counter shared by the template VMA and every clone
  // (per-run aggregate, §6g — a per-page count was write-only state that put
  // two 16k-iteration loops on the clone/teardown hot path). Both stay empty
  // on the plain fork path — zygote forks keep their legacy free-write
  // semantics. Invariant: a set cow bit implies the page is present.
  PageBitmap cow;
  std::shared_ptr<std::uint64_t> cow_shares;

  std::uint64_t page_count() const { return length / kPageSize; }
  std::uint64_t resident_pages() const { return present.count(); }
  std::uint64_t resident_bytes() const { return resident_pages() * kPageSize; }
  std::uint64_t dirty_pages() const { return dirty.count(); }
  std::uint64_t cow_pages() const { return cow.count(); }
};

class AddressSpace {
 public:
  AddressSpace() = default;

  // Maps a new region at the top of the current layout. `length` is rounded
  // up to a page multiple. Pages start non-resident unless populate is true.
  VmaId map(std::uint64_t length, Prot prot, VmaKind kind, std::string name,
            std::shared_ptr<PageSource> source, bool populate = false,
            std::string backing_path = {});
  void unmap(VmaId id);
  void clear();  // exec() semantics: drop every mapping
  // Room for `n` mappings in all, so a caller mapping a known layout (the
  // CRIU restorer) does not regrow the table once per mapping.
  void reserve(std::size_t n) { vmas_.reserve(n); }

  // What a touch() did, so the kernel can charge each effect: a minor fault
  // per newly resident page, a page copy per COW break.
  struct TouchResult {
    std::uint64_t newly_resident = 0;
    std::uint64_t cow_broken = 0;  // shared pages privatized by a write
    TouchResult& operator+=(const TouchResult& o) {
      newly_resident += o.newly_resident;
      cow_broken += o.cow_broken;
      return *this;
    }
  };

  // Fault in `pages` pages of `id` starting at `first_page` (clamped to the
  // VMA size). A write to a COW-shared page breaks the sharing.
  TouchResult touch(VmaId id, std::uint64_t first_page, std::uint64_t pages,
                    bool write = false);
  // Fault in everything.
  TouchResult touch_all(VmaId id, bool write = false);

  // Bulk page install for the restore replay hot path (DESIGN.md §6g): copy
  // `payload` (a run of up to `pages * kPageSize` bytes, possibly shorter or
  // empty) into the VMA's buffer at page `first_page` in one memcpy, then
  // fault the first `touch_pages` pages in as reads. Equivalent to a payload
  // copy loop followed by touch(id, first_page, touch_pages) — the payload
  // may cover more pages than are touched (lazy restores copy the whole run
  // but only map the eager prefix). No-op copy for non-buffer sources.
  TouchResult populate_run(VmaId id, std::uint64_t first_page,
                           std::uint64_t touch_pages,
                           std::span<const std::uint8_t> payload);

  // Soft-dirty tracking (used by CRIU pre-dump / incremental dumps).
  void clear_soft_dirty();

  const Vma* find(VmaId id) const;
  Vma* find_mutable(VmaId id);
  const std::vector<Vma>& vmas() const { return vmas_; }

  std::uint64_t resident_bytes() const;
  std::uint64_t resident_pages() const;
  std::uint64_t mapped_bytes() const;

  // Deep copy with fresh VMA identity preserved (used by fork/COW and by the
  // CRIU restorer when rebuilding a process image).
  AddressSpace clone_for_fork() const;

  // Like clone_for_fork, but with explicit COW accounting (template-clone
  // restore): every currently resident page is marked shared in the child
  // and counted in a sharer vector common to both sides, so the child's
  // first write to each shared page is charged as a page copy. Non-const:
  // lazily creates the parent-side sharer vectors.
  AddressSpace clone_cow();

  std::uint64_t cow_pages() const;

 private:
  std::vector<Vma> vmas_;
  VmaId next_id_ = 1;
  std::uint64_t next_addr_ = 0x0000'5555'0000'0000ULL;
};

}  // namespace prebake::os
