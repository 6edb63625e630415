// Content-addressed node-local page store (DESIGN.md §6f).
//
// Every dumped page is identified by its 64-bit content digest (the same
// hashes digest-mode images already carry). A node that keeps a store of the
// digests it has materialized can
//
//   * negotiate delta transfers with the snapshot registry: ship the digest
//     list first (one RTT + 8 bytes/page), then pull only the pages the node
//     is missing — a node that restored the JVM-base snapshot of one
//     function fetches only the app-delta of the next;
//   * keep one frozen *template* process per snapshot: the first restore on
//     a node materializes it, later replicas clone it with COW mappings
//     (Catalyzer's sandbox-fork), skipping image reads entirely;
//   * give the scheduler a byte-accurate locality signal (missing unique
//     bytes) instead of whole-file hit/miss.
//
// Records are refcounted: template registration pins its pages; eviction
// under a byte budget removes unpinned pages only, LRU first, so pinned
// pages can exceed the budget while their template lives (they are the
// template's RSS, resident regardless). Like every other container in the
// model, mutation is not thread-safe — each WorkerNode owns one store and
// each simulation runs its scenario single-threaded.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "os/page_source.hpp"
#include "os/process.hpp"

namespace prebake::criu {

struct PageStoreStats {
  // Delta negotiations: page occurrences already held locally vs pages that
  // had to cross the wire (unique within each transferred image).
  std::uint64_t hit_pages = 0;
  std::uint64_t miss_pages = 0;
  std::uint64_t delta_bytes = 0;   // page payload actually transferred
  std::uint64_t digest_bytes = 0;  // negotiation overhead (digest lists)
  std::uint64_t evicted_pages = 0;
  std::uint64_t template_clones = 0;
  std::uint64_t templates_materialized = 0;
  // Layered restores (DESIGN.md §6k): replicas built by cloning a pinned
  // *base-runtime* template + delta replay, and base templates frozen.
  std::uint64_t base_template_clones = 0;
  std::uint64_t base_templates_materialized = 0;
};

class PageStore {
 public:
  // A frozen restore template: the process to clone replicas from, the
  // mapping from image VmaEntry ids to the template's VMA ids (clones share
  // those ids), and the pinned page digests of its snapshot chain.
  struct TemplateInfo {
    os::Pid pid = os::kNoPid;
    std::map<os::VmaId, os::VmaId> vma_map;
    std::vector<std::uint64_t> digests;
    // Layered snapshots (DESIGN.md §6k): the base-runtime template this
    // function template was derived from ("" = monolithic). Registration
    // bumps the base's dependent count, dropping decrements it — the count
    // is surfaced (prebakectl) so operators see which bases are load-bearing
    // before evicting them.
    std::string base_key;
    std::uint32_t dependents = 0;  // templates registered with base_key = us
  };

  // --- content-addressed pages ---------------------------------------------
  bool contains(std::uint64_t digest) const { return find(digest) != nullptr; }
  // Digests (unique within the list) the store does not hold — what a delta
  // transfer must move.
  std::uint64_t missing_unique_pages(
      std::span<const std::uint64_t> digests) const;
  std::uint64_t missing_unique_bytes(
      std::span<const std::uint64_t> digests) const {
    return missing_unique_pages(digests) * os::kPageSize;
  }
  // Record every digest as locally materialized (refcount unchanged — a page
  // enters unpinned and is pinned only by templates). Refreshes recency,
  // evicts unpinned overflow, returns how many digests were new.
  std::uint64_t insert(std::span<const std::uint64_t> digests);
  // Refcount ++/-- per digest occurrence (callers keep pin/unpin symmetric).
  void pin(std::span<const std::uint64_t> digests);
  void unpin(std::span<const std::uint64_t> digests);
  std::uint32_t refcount(std::uint64_t digest) const;

  // --- byte budget ----------------------------------------------------------
  // 0 = unbounded. Shrinking evicts unpinned pages immediately (LRU first);
  // pinned pages are never evicted and may exceed the budget.
  void set_capacity(std::uint64_t bytes);
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t stored_pages() const { return size_; }
  std::uint64_t stored_bytes() const { return size_ * os::kPageSize; }

  // --- frozen templates -----------------------------------------------------
  bool has_template(const std::string& key) const {
    return templates_.contains(key);
  }
  const TemplateInfo* find_template(const std::string& key) const;
  // Pins (and inserts) the template's digests for its lifetime.
  void register_template(const std::string& key, TemplateInfo info);
  // Unpins the template's digests and forgets it. Returns the template pid
  // (kNoPid if the key was unknown); the caller owns killing/reaping it.
  os::Pid drop_template(const std::string& key);
  std::vector<os::Pid> drop_all_templates();
  std::size_t template_count() const { return templates_.size(); }
  // Dependent templates registered on top of `key` (layered deltas). 0 for
  // unknown keys and leaf templates.
  std::uint32_t template_dependents(const std::string& key) const;
  const std::map<std::string, TemplateInfo>& templates() const {
    return templates_;
  }
  // Pages pinned across all registered templates — the warmth a node crash
  // destroys (NodeStats::warmth_template_pages_destroyed accounting).
  std::uint64_t template_pages() const {
    std::uint64_t total = 0;
    for (const auto& [key, t] : templates_) total += t.digests.size();
    return total;
  }

  // Node crash: the store's RAM is gone. Drops every page record (templates
  // must have been dropped first); stats survive for reporting.
  void clear_pages();

  const PageStoreStats& stats() const { return stats_; }
  PageStoreStats& stats_mut() { return stats_; }

 private:
  // One slot of the page table. Every digest value is a valid key (0
  // included), so emptiness is its own flag rather than a reserved digest.
  struct Slot {
    std::uint64_t digest = 0;
    std::uint64_t tick = 0;      // recency for LRU eviction
    std::uint32_t refcount = 0;  // pinning templates
    bool used = false;
  };

  const Slot* find(std::uint64_t digest) const;
  Slot* find(std::uint64_t digest) {
    return const_cast<Slot*>(std::as_const(*this).find(digest));
  }
  // The digest's slot, claimed (zero refcount) if the digest was absent.
  Slot& find_or_insert(std::uint64_t digest, bool& inserted);
  void erase(std::uint64_t digest);
  void grow();
  void evict_to_fit();

  // digest -> record, open addressing with linear probing: power-of-two
  // capacity, load <= 7/8, backward-shift erase (no tombstones), so a
  // steady-state re-insert of a stored digest list walks flat memory and
  // allocates nothing (DESIGN.md §6f).
  std::vector<Slot> slots_;
  std::uint64_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots_.size()): home-slot hash shift
  std::map<std::string, TemplateInfo> templates_;
  std::uint64_t capacity_ = 0;  // bytes; 0 = unbounded
  std::uint64_t tick_ = 0;
  PageStoreStats stats_;
};

}  // namespace prebake::criu
