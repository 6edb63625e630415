// The content-addressed page store (DESIGN.md §6f): unit behavior, the
// delta-aware registry transfer, and COW template restores.
#include "criu/page_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "criu/dump.hpp"
#include "criu/restore.hpp"

namespace prebake::criu {
namespace {

using os::kPageSize;

// --- store unit behavior ---------------------------------------------------

TEST(StoreTest, InsertTracksUniquePages) {
  PageStore store;
  const std::uint64_t digests[] = {1, 2, 3, 2, 1};
  EXPECT_EQ(store.missing_unique_pages(digests), 3u);
  EXPECT_EQ(store.missing_unique_bytes(digests), 3 * kPageSize);
  EXPECT_EQ(store.insert(digests), 3u);
  EXPECT_EQ(store.stored_pages(), 3u);
  EXPECT_EQ(store.stored_bytes(), 3 * kPageSize);
  EXPECT_TRUE(store.contains(2));
  EXPECT_FALSE(store.contains(9));
  EXPECT_EQ(store.missing_unique_pages(digests), 0u);
  // Re-inserting known pages adds nothing.
  EXPECT_EQ(store.insert(digests), 0u);
  EXPECT_EQ(store.stored_pages(), 3u);
}

TEST(StoreTest, PinUnpinRefcounts) {
  PageStore store;
  const std::uint64_t digests[] = {10, 20};
  store.pin(digests);
  store.pin(digests);
  EXPECT_EQ(store.refcount(10), 2u);
  store.unpin(digests);
  EXPECT_EQ(store.refcount(10), 1u);
  store.unpin(digests);
  EXPECT_EQ(store.refcount(10), 0u);
  EXPECT_TRUE(store.contains(10));  // unpinned but still resident
  EXPECT_THROW(store.unpin(digests), std::logic_error);
  EXPECT_EQ(store.refcount(999), 0u);
}

TEST(StoreTest, EvictionIsRefcountThenLru) {
  PageStore store;
  const std::uint64_t pinned[] = {1};
  const std::uint64_t old_pages[] = {2, 3};
  const std::uint64_t new_pages[] = {4, 5};
  store.pin(pinned);
  store.insert(old_pages);
  store.insert(new_pages);
  // Room for three pages: both LRU victims are unpinned "old" pages even
  // though the pinned page is older still.
  store.set_capacity(3 * kPageSize);
  EXPECT_EQ(store.stored_pages(), 3u);
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_FALSE(store.contains(3));
  EXPECT_TRUE(store.contains(4));
  EXPECT_TRUE(store.contains(5));
  EXPECT_EQ(store.stats().evicted_pages, 2u);
}

TEST(StoreTest, PinnedPagesMayExceedBudget) {
  PageStore store;
  std::vector<std::uint64_t> digests(8);
  std::iota(digests.begin(), digests.end(), 100);
  store.pin(digests);
  store.set_capacity(2 * kPageSize);
  EXPECT_EQ(store.stored_pages(), 8u);  // nothing evictable
  store.unpin(digests);
  EXPECT_EQ(store.stored_pages(), 2u);  // now the budget applies
}

TEST(TemplateTest, RegisterPinsAndDropUnpins) {
  PageStore store;
  PageStore::TemplateInfo info;
  info.pid = 42;
  info.digests = {7, 8, 9};
  store.register_template("snap", std::move(info));
  EXPECT_TRUE(store.has_template("snap"));
  EXPECT_EQ(store.template_count(), 1u);
  EXPECT_EQ(store.refcount(7), 1u);
  EXPECT_EQ(store.stats().templates_materialized, 1u);
  ASSERT_NE(store.find_template("snap"), nullptr);
  EXPECT_EQ(store.find_template("snap")->pid, 42);
  EXPECT_EQ(store.find_template("nope"), nullptr);

  PageStore::TemplateInfo dup;
  EXPECT_THROW(store.register_template("snap", std::move(dup)),
               std::logic_error);

  EXPECT_THROW(store.clear_pages(), std::logic_error);  // template still live
  EXPECT_EQ(store.drop_template("snap"), 42);
  EXPECT_EQ(store.drop_template("snap"), os::kNoPid);
  EXPECT_EQ(store.refcount(7), 0u);
  store.clear_pages();
  EXPECT_EQ(store.stored_pages(), 0u);
}

TEST(TemplateTest, DropAllReturnsEveryPid) {
  PageStore store;
  PageStore::TemplateInfo a;
  a.pid = 10;
  store.register_template("a", std::move(a));
  PageStore::TemplateInfo b;
  b.pid = 11;
  store.register_template("b", std::move(b));
  const std::vector<os::Pid> pids = store.drop_all_templates();
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_EQ(pids[0], 10);
  EXPECT_EQ(pids[1], 11);
  EXPECT_EQ(store.template_count(), 0u);
}

// --- differential check against a std::map reference model ----------------

// The store's observable semantics, written the obvious way: a std::map of
// records and the documented eviction rule (unpinned only, oldest tick
// first, digest breaking ties). The flat table must match it operation for
// operation, whatever slots its digests land in.
class ReferenceStore {
 public:
  std::uint64_t missing_unique_pages(const std::vector<std::uint64_t>& ds) const {
    std::vector<std::uint64_t> missing;
    for (const std::uint64_t d : ds)
      if (!pages_.contains(d)) missing.push_back(d);
    std::sort(missing.begin(), missing.end());
    return static_cast<std::uint64_t>(
        std::unique(missing.begin(), missing.end()) - missing.begin());
  }
  std::uint64_t insert(const std::vector<std::uint64_t>& ds) {
    ++tick_;
    std::uint64_t fresh = 0;
    for (const std::uint64_t d : ds) {
      fresh += pages_.contains(d) ? 0 : 1;
      pages_[d].tick = tick_;
    }
    evict_to_fit();
    return fresh;
  }
  void pin(const std::vector<std::uint64_t>& ds) {
    ++tick_;
    for (const std::uint64_t d : ds) {
      Rec& r = pages_[d];
      ++r.refcount;
      r.tick = tick_;
    }
  }
  void unpin(const std::vector<std::uint64_t>& ds) {
    for (const std::uint64_t d : ds) {
      const auto it = pages_.find(d);
      if (it == pages_.end() || it->second.refcount == 0)
        throw std::logic_error{"reference unpin underflow"};
      --it->second.refcount;
    }
    evict_to_fit();
  }
  void set_capacity(std::uint64_t bytes) {
    capacity_ = bytes;
    evict_to_fit();
  }
  bool has_template(const std::string& key) const {
    return templates_.contains(key);
  }
  void register_template(const std::string& key,
                         const std::vector<std::uint64_t>& ds) {
    pin(ds);
    templates_.emplace(key, ds);
  }
  void drop_template(const std::string& key) {
    const std::vector<std::uint64_t> ds = templates_.at(key);
    templates_.erase(key);
    unpin(ds);
  }
  void clear_pages() { pages_.clear(); }

  bool contains(std::uint64_t d) const { return pages_.contains(d); }
  std::uint32_t refcount(std::uint64_t d) const {
    const auto it = pages_.find(d);
    return it == pages_.end() ? 0 : it->second.refcount;
  }
  std::uint64_t stored_pages() const { return pages_.size(); }
  std::uint64_t evicted_pages() const { return evicted_; }
  std::size_t template_count() const { return templates_.size(); }

 private:
  struct Rec {
    std::uint32_t refcount = 0;
    std::uint64_t tick = 0;
  };
  void evict_to_fit() {
    if (capacity_ == 0 || pages_.size() * kPageSize <= capacity_) return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;
    for (const auto& [d, r] : pages_)
      if (r.refcount == 0) victims.emplace_back(r.tick, d);
    std::sort(victims.begin(), victims.end());
    for (const auto& [tick, d] : victims) {
      if (pages_.size() * kPageSize <= capacity_) break;
      pages_.erase(d);
      ++evicted_;
    }
  }
  std::map<std::uint64_t, Rec> pages_;
  std::map<std::string, std::vector<std::uint64_t>> templates_;
  std::uint64_t capacity_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evicted_ = 0;
};

// Digests whose products with the 64-bit golden ratio agree in the top 40
// bits: the store hashes multiplicatively (Fibonacci hashing), so these
// share one home slot in every table up to 2^40 slots and pile into one
// probe run — exactly what backward-shift erase has to repair. If the hash
// ever changes they are still valid digests, just no longer colliding.
std::vector<std::uint64_t> colliding_digests(std::uint64_t top_bits,
                                             std::size_t n) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  std::uint64_t inverse = kGolden;  // Newton's iteration for kGolden^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inverse *= 2 - kGolden * inverse;
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(((top_bits << 24) | (i + 1)) * inverse);
  return out;
}

TEST(StoreTest, FlatTableMatchesMapReferenceOverRandomOperations) {
  // The digest pool: 0 (must be storable like any other value), small
  // sequential values, two families that share a home slot, and random
  // 64-bit digests.
  std::vector<std::uint64_t> pool = {0};
  for (std::uint64_t d = 1; d <= 40; ++d) pool.push_back(d);
  for (const std::uint64_t top : {0x123456ull, 0xABCDEFull})
    for (const std::uint64_t d : colliding_digests(top, 24)) pool.push_back(d);
  std::mt19937_64 rng{20240611};
  for (int i = 0; i < 80; ++i) pool.push_back(rng());

  PageStore store;
  ReferenceStore ref;
  const auto pick_list = [&] {
    std::vector<std::uint64_t> ds(1 + rng() % 12);
    for (std::uint64_t& d : ds) d = pool[rng() % pool.size()];
    return ds;
  };
  const auto compare = [&](int op) {
    ASSERT_EQ(store.stored_pages(), ref.stored_pages()) << "op " << op;
    ASSERT_EQ(store.stats().evicted_pages, ref.evicted_pages()) << "op " << op;
    ASSERT_EQ(store.template_count(), ref.template_count()) << "op " << op;
    for (const std::uint64_t d : pool) {
      ASSERT_EQ(store.contains(d), ref.contains(d)) << "op " << op << " " << d;
      ASSERT_EQ(store.refcount(d), ref.refcount(d)) << "op " << op << " " << d;
    }
    const std::vector<std::uint64_t> probe = pick_list();
    ASSERT_EQ(store.missing_unique_pages(probe), ref.missing_unique_pages(probe))
        << "op " << op;
  };

  constexpr int kOps = 100000;
  std::uint64_t underflows = 0;
  std::uint64_t clears = 0;
  // Runs `a` on the store and `b` on the reference; both must throw the
  // unpin underflow, or neither.
  const auto both = [&](int op, const auto& a, const auto& b) {
    bool store_threw = false;
    bool ref_threw = false;
    try {
      a();
    } catch (const std::logic_error&) {
      store_threw = true;
    }
    try {
      b();
    } catch (const std::logic_error&) {
      ref_threw = true;
    }
    EXPECT_EQ(store_threw, ref_threw) << "op " << op;
    if (store_threw) ++underflows;
  };
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t kind = rng() % 100;
    if (kind < 35) {
      const std::vector<std::uint64_t> ds = pick_list();
      ASSERT_EQ(store.insert(ds), ref.insert(ds)) << "op " << op;
    } else if (kind < 50) {
      const std::vector<std::uint64_t> ds = pick_list();
      store.pin(ds);
      ref.pin(ds);
    } else if (kind < 65) {
      // Often unbalanced on purpose: both sides must throw at the same
      // digest, with the same decrements applied before it.
      const std::vector<std::uint64_t> ds = pick_list();
      both(op, [&] { store.unpin(ds); }, [&] { ref.unpin(ds); });
    } else if (kind < 75) {
      // Unbounded, or a budget below the pool size so eviction runs.
      const std::uint64_t pages = rng() % 4 == 0 ? 0 : 8 + rng() % 120;
      store.set_capacity(pages * kPageSize);
      ref.set_capacity(pages * kPageSize);
    } else if (kind < 87) {
      const std::string key = "t" + std::to_string(rng() % 6);
      if (ref.has_template(key)) continue;
      const std::vector<std::uint64_t> ds = pick_list();
      PageStore::TemplateInfo info;
      info.pid = static_cast<os::Pid>(100 + op);
      info.digests = ds;
      store.register_template(key, std::move(info));
      ref.register_template(key, ds);
    } else if (kind < 98) {
      // Unbalanced unpins above may have taken the template's pins, so the
      // drop's own unpin can underflow too.
      const std::string key = "t" + std::to_string(rng() % 6);
      const bool known = ref.has_template(key);
      os::Pid pid = os::kNoPid;
      both(op, [&] { pid = store.drop_template(key); },
           [&] { if (known) ref.drop_template(key); });
      if (pid != os::kNoPid) EXPECT_TRUE(known) << "op " << op;
    } else {
      if (ref.template_count() == 0) {
        store.clear_pages();
        ref.clear_pages();
        ++clears;
      } else {
        EXPECT_THROW(store.clear_pages(), std::logic_error);
      }
    }
    compare(op);
    if (::testing::Test::HasFailure()) return;
  }
  // The mix really exercised the edges it claims to.
  EXPECT_GT(underflows, 1000u);
  EXPECT_GT(clears, 10u);
  EXPECT_GT(ref.evicted_pages(), 10000u);
}

// --- delta transfer + templates through the restore engine ------------------

class StoreRestoreTest : public ::testing::Test {
 protected:
  StoreRestoreTest() : kernel_{sim_} {
    kernel_.fs().create("/bin/app", 2 * 1024 * 1024);
  }

  // A process whose big heap regenerates from `heap_seed`: targets sharing
  // the seed share those page contents (the cross-function runtime base).
  os::Pid make_target(std::uint64_t heap_seed, std::uint64_t extra_seed = 0,
                      std::uint64_t heap_pages = 384) {
    const os::Pid pid = kernel_.clone_process(os::kNoPid);
    kernel_.exec(pid, "/bin/app", {"/bin/app"});
    const os::VmaId heap = kernel_.mmap(
        pid, kPageSize * (heap_pages + 128), os::Prot::kReadWrite,
        os::VmaKind::kAnon, "[big-heap]",
        std::make_shared<os::PatternSource>(heap_seed), false);
    kernel_.fault_in(pid, heap, 0, heap_pages);
    if (extra_seed != 0) {
      const os::VmaId extra = kernel_.mmap(
          pid, kPageSize * 16, os::Prot::kReadWrite, os::VmaKind::kAnon,
          "[app-delta]", std::make_shared<os::PatternSource>(extra_seed),
          false);
      kernel_.fault_in_all(pid, extra);
    }
    return pid;
  }

  DumpResult dump_to(os::Pid pid, const std::string& prefix) {
    DumpOptions opts;
    opts.fs_prefix = prefix;
    return Dumper{kernel_}.dump(pid, opts);
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
};

TEST_F(StoreRestoreTest, StoreSecondFetchShipsOnlyDigests) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/registry/a/");
  const std::span<const std::uint64_t> digests =
      dump.images.decoded().pages->digests();
  const std::uint64_t digest_bytes = digests.size() * 8;

  PageStore store;
  const std::uint64_t unique = store.missing_unique_pages(digests);
  RestoreOptions opts;
  opts.fs_prefix = "/registry/a/";
  opts.remote_fetch = true;
  opts.page_store = &store;  // no store_key: delta only, no templates

  kernel_.fs().drop_caches();
  const RestoreResult first = Restorer{kernel_}.restore(dump.images, opts);
  // Cold store: the negotiation saves nothing, costs the digest list.
  EXPECT_EQ(first.store_hit_pages, digests.size() - unique);
  EXPECT_EQ(first.store_delta_bytes, unique * kPageSize);
  EXPECT_FALSE(first.template_materialized);
  EXPECT_EQ(store.stored_pages(), digests.size());

  // Same node fetches again after losing its page cache: every payload page
  // is already in the store, so only the digest list crosses the wire.
  kernel_.fs().drop_caches();
  const RestoreResult second = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_EQ(second.store_delta_bytes, 0u);
  EXPECT_EQ(second.store_hit_pages, digests.size());
  EXPECT_EQ(second.remote_bytes,
            first.remote_bytes - first.store_delta_bytes);
  EXPECT_GE(second.remote_bytes, digest_bytes);
  EXPECT_EQ(store.stats().delta_bytes, first.store_delta_bytes);
}

TEST_F(StoreRestoreTest, StoreCrossFunctionDeltaIsOnlyTheAppPages) {
  // Two "functions" sharing the runtime-base heap seed; the second differs
  // only in its app VMA (plus per-pid stack/heap noise).
  const DumpResult base = dump_to(make_target(0xBA5E), "/registry/base/");
  const DumpResult app =
      dump_to(make_target(0xBA5E, 0xA44), "/registry/app/");

  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/registry/base/";
  opts.remote_fetch = true;
  opts.page_store = &store;
  kernel_.fs().drop_caches();
  Restorer{kernel_}.restore(base.images, opts);

  opts.fs_prefix = "/registry/app/";
  kernel_.fs().drop_caches();
  const RestoreResult restored = Restorer{kernel_}.restore(app.images, opts);
  const std::uint64_t payload =
      app.images.decoded().pages->digests().size() * kPageSize;
  EXPECT_GT(restored.store_hit_pages, 0u);
  EXPECT_LT(restored.store_delta_bytes, payload / 2);
  EXPECT_GT(restored.store_delta_bytes, 0u);  // the app pages are new
}

TEST_F(StoreRestoreTest, StoreChainRestoreFetchesOnlyFinalDelta) {
  // Pre-dump chain in CRIU's --prev-images-dir layout: the parent link's
  // files live under parent/ inside the final link's registry directory;
  // each link names its own directory.
  const os::Pid pid = make_target(0xFEED);
  DumpOptions pre;
  pre.pre_dump = true;
  pre.fs_prefix = "/registry/chain/parent/";
  const DumpResult parent = Dumper{kernel_}.dump(pid, pre);
  // New app state appears between the pre-dump and the final dump.
  const os::VmaId fresh = kernel_.mmap(
      pid, kPageSize * 16, os::Prot::kReadWrite, os::VmaKind::kAnon,
      "[app-delta]", std::make_shared<os::PatternSource>(0xD1FF), false);
  kernel_.fault_in_all(pid, fresh, /*write=*/true);
  const ImageDir* parents[] = {&parent.images};
  DumpOptions fin;
  fin.parent_chain = parents;
  fin.fs_prefix = "/registry/chain/";
  const DumpResult child = Dumper{kernel_}.dump(pid, fin);

  // The pre-dump's pages are already materialized on this node (the
  // pre-dump transfer itself put them there): only the final dump's delta
  // should cross the wire.
  PageStore store;
  store.insert(parent.images.decoded().pages->digests());
  RestoreOptions opts;
  opts.fs_prefix = "/registry/chain/";
  opts.remote_fetch = true;
  opts.page_store = &store;
  kernel_.fs().drop_caches();
  const ImageLink lower[] = {{&parent.images, "/registry/chain/parent/", ""}};
  const RestoreResult restored =
      Restorer{kernel_}.restore(child.images, opts, lower);

  const std::uint64_t pre_pages = parent.images.decoded().pages->digests().size();
  const std::uint64_t fin_pages = child.images.decoded().pages->digests().size();
  // Every pre-dump page was a store hit; only the final delta was fetched.
  EXPECT_GE(restored.store_hit_pages, pre_pages);
  EXPECT_GT(restored.store_delta_bytes, 0u);
  EXPECT_LE(restored.store_delta_bytes, fin_pages * kPageSize);
  EXPECT_LT(restored.store_delta_bytes, (pre_pages + fin_pages) * kPageSize);
}

TEST_F(StoreRestoreTest, StoreDisabledMatchesLegacyTiming) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/legacy/");
  RestoreOptions opts;
  opts.fs_prefix = "/snap/legacy/";

  kernel_.fs().drop_caches();
  const sim::TimePoint t0 = sim_.now();
  const RestoreResult without = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration legacy = sim_.now() - t0;
  kernel_.kill_process(without.pid);
  kernel_.reap(without.pid);

  // A local (non-remote) restore with a store attached but no template key
  // charges exactly the same time: the store only records digests.
  PageStore store;
  opts.page_store = &store;
  kernel_.fs().drop_caches();
  const sim::TimePoint t1 = sim_.now();
  const RestoreResult with = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_EQ((sim_.now() - t1).nanos_count(), legacy.nanos_count());
  EXPECT_EQ(with.store_hit_pages, 0u);
  EXPECT_EQ(with.store_delta_bytes, 0u);
  EXPECT_FALSE(with.template_clone);
  EXPECT_GT(store.stored_pages(), 0u);
}

// --- COW template restores --------------------------------------------------

class TemplateRestoreTest : public StoreRestoreTest {};

TEST_F(TemplateRestoreTest, TemplateFirstRestoreMaterializesSecondClones) {
  // A big enough snapshot that the fixed CLONE cost is well under a tenth of
  // the full restore cost (with a 384-page target the 300us clone_call alone
  // would dominate, which is exactly what the paper's Figure 4 shows).
  const DumpResult dump = dump_to(make_target(0xFEED, 0, 16384), "/snap/tpl/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/tpl/";
  opts.page_store = &store;
  opts.store_key = "/snap/tpl/";

  const sim::TimePoint t0 = sim_.now();
  const RestoreResult first = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration first_cost = sim_.now() - t0;
  EXPECT_TRUE(first.template_materialized);
  EXPECT_FALSE(first.template_clone);
  ASSERT_TRUE(store.has_template("/snap/tpl/"));

  // The template is a frozen copy; the caller got a live clone of it.
  const os::Pid tpl = store.find_template("/snap/tpl/")->pid;
  ASSERT_NE(tpl, first.pid);
  EXPECT_EQ(kernel_.process(tpl).state(), os::ProcState::kFrozen);
  EXPECT_NE(kernel_.process(tpl).name().find("[template]"), std::string::npos);
  EXPECT_EQ(kernel_.process(first.pid).state(), os::ProcState::kRunning);
  EXPECT_EQ(kernel_.process(first.pid).mm().resident_pages(),
            kernel_.process(tpl).mm().resident_pages());

  const sim::TimePoint t1 = sim_.now();
  const RestoreResult second = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration clone_cost = sim_.now() - t1;
  EXPECT_TRUE(second.template_clone);
  EXPECT_EQ(second.bytes_read, 0u);
  EXPECT_EQ(second.remote_bytes, 0u);
  EXPECT_GT(second.pages_restored, 0u);  // clone shares all resident pages
  EXPECT_EQ(kernel_.process(second.pid).mm().resident_pages(),
            kernel_.process(tpl).mm().resident_pages());
  EXPECT_EQ(store.stats().template_clones, 1u);
  // The whole point: Nth replica start costs ~CLONE, not a full restore.
  EXPECT_LT(clone_cost.nanos_count(), first_cost.nanos_count() / 10);
}

TEST_F(TemplateRestoreTest, TemplateCowWriteChargesPageCopyOnce) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/cow/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/cow/";
  opts.page_store = &store;
  opts.store_key = "/snap/cow/";
  Restorer{kernel_}.restore(dump.images, opts);
  const RestoreResult clone = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_TRUE(clone.template_clone);

  os::Process& proc = kernel_.process(clone.pid);
  const std::uint64_t shared_before = proc.mm().cow_pages();
  EXPECT_EQ(shared_before, proc.mm().resident_pages());
  os::VmaId heap = 0;
  for (const os::Vma& v : proc.mm().vmas())
    if (v.name == "[big-heap]") heap = v.id;
  ASSERT_NE(heap, 0u);

  const sim::TimePoint t0 = sim_.now();
  kernel_.fault_in(clone.pid, heap, 0, 4, /*write=*/true);
  const sim::Duration write_cost = sim_.now() - t0;
  EXPECT_EQ(write_cost.nanos_count(),
            (kernel_.costs().memcpy_cost(kPageSize) * 4.0).nanos_count());
  EXPECT_EQ(proc.mm().cow_pages(), shared_before - 4);

  // The copies are made; writing the same pages again is free.
  const sim::TimePoint t1 = sim_.now();
  kernel_.fault_in(clone.pid, heap, 0, 4, /*write=*/true);
  EXPECT_EQ((sim_.now() - t1).nanos_count(), 0);
  // The frozen template never shares in the clone's direction.
  const os::Pid tpl = store.find_template("/snap/cow/")->pid;
  EXPECT_EQ(kernel_.process(tpl).mm().cow_pages(), 0u);
}

TEST_F(TemplateRestoreTest, TemplateVerifyPagesPassesAfterCowWrites) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/verify/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/verify/";
  opts.page_store = &store;
  opts.store_key = "/snap/verify/";
  Restorer{kernel_}.restore(dump.images, opts);

  // Clone a replica and break COW on part of its heap.
  const RestoreResult writer = Restorer{kernel_}.restore(dump.images, opts);
  os::Process& wproc = kernel_.process(writer.pid);
  for (const os::Vma& v : wproc.mm().vmas())
    if (v.name == "[big-heap]")
      kernel_.fault_in(writer.pid, v.id, 0, 16, /*write=*/true);

  // A verified clone still checks out: the template's pages are immutable,
  // and COW isolated the writer's copies from everyone else.
  RestoreOptions verify = opts;
  verify.verify_pages = true;
  const RestoreResult checked = Restorer{kernel_}.restore(dump.images, verify);
  EXPECT_TRUE(checked.template_clone);
  EXPECT_GT(checked.duration.nanos_count(), 0);  // verification charges page reads
}

TEST_F(TemplateRestoreTest, TemplateDroppedTemplateRematerializes) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/drop/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/drop/";
  opts.page_store = &store;
  opts.store_key = "/snap/drop/";
  Restorer{kernel_}.restore(dump.images, opts);

  const os::Pid tpl = store.drop_template("/snap/drop/");
  ASSERT_NE(tpl, os::kNoPid);
  kernel_.kill_process(tpl);
  kernel_.reap(tpl);

  const RestoreResult again = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_TRUE(again.template_materialized);
  EXPECT_FALSE(again.template_clone);
  EXPECT_TRUE(store.has_template("/snap/drop/"));
  EXPECT_EQ(store.stats().templates_materialized, 2u);
}

// Regression (DESIGN.md §6j): requesting a template clone together with
// non-eager paging used to silently skip the template; it is now a typed,
// non-retryable config error diagnosed before any work happens.
TEST_F(TemplateRestoreTest, TemplateWithNonEagerPagingIsConfigError) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/lazy/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/lazy/";
  opts.page_store = &store;
  opts.store_key = "/snap/lazy/";
  opts.paging = PagingPolicy::lazy();
  try {
    Restorer{kernel_}.restore(dump.images, opts);
    FAIL() << "template clone + lazy paging was accepted";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kConfig);
    EXPECT_FALSE(e.transient());
  }
  // The rejected restore did no work against the store...
  EXPECT_FALSE(store.has_template("/snap/lazy/"));
  EXPECT_EQ(store.stored_pages(), 0u);
  // ...and the same options without the template request (delta-only store
  // use) restore lazily as before.
  opts.store_key.clear();
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_NE(restored.lazy_server, nullptr);
  EXPECT_FALSE(restored.template_materialized);
  EXPECT_FALSE(store.has_template("/snap/lazy/"));
}

}  // namespace
}  // namespace prebake::criu
