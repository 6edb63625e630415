// The content-addressed page store (DESIGN.md §6f): unit behavior, the
// delta-aware registry transfer, and COW template restores.
#include "criu/page_store.hpp"

#include <gtest/gtest.h>

#include <numeric>

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
