// End-to-end checkpoint/restore tests: the heart of the CRIU-model engine.
#include <gtest/gtest.h>

#include <numeric>

#include "criu/dump.hpp"
#include "criu/restore.hpp"

namespace prebake::criu {
namespace {

using os::Cap;
using os::kPageSize;

class DumpRestoreTest : public ::testing::Test {
 protected:
  DumpRestoreTest() : kernel_{sim_} {
    kernel_.fs().create("/bin/app", 2 * 1024 * 1024);
  }

  // A process with pattern memory, extra threads, fds and namespaces.
  os::Pid make_target() {
    os::CloneOptions copts;
    copts.new_pid_ns = true;
    const os::Pid pid = kernel_.clone_process(os::kNoPid, copts);
    kernel_.exec(pid, "/bin/app", {"/bin/app", "--fn"});
    kernel_.process(pid).spawn_thread(pid + 1000);
    kernel_.process(pid).spawn_thread(pid + 1001);
    kernel_.process(pid).threads()[0].regs = {1, 2, 3, 4, 5, 6, 7, 8};
    kernel_.process(pid).install_fd(
        os::FdDesc{-1, os::FdKind::kSocket, "tcp://0.0.0.0:8080", 0});
    const os::VmaId heap = kernel_.mmap(
        pid, kPageSize * 64, os::Prot::kReadWrite, os::VmaKind::kAnon,
        "[big-heap]", std::make_shared<os::PatternSource>(0xFEED), false);
    kernel_.fault_in(pid, heap, 0, 40);
    return pid;
  }

  // A process whose memory is real mutable bytes (BufferSource).
  os::Pid make_buffer_target(std::vector<std::uint8_t> payload) {
    const os::Pid pid = kernel_.clone_process(os::kNoPid);
    kernel_.process(pid).set_name("buffer-app");
    auto buf = std::make_shared<os::BufferSource>(std::move(payload));
    const std::uint64_t len = buf->bytes().size();
    const os::VmaId vma =
        kernel_.mmap(pid, len, os::Prot::kReadWrite, os::VmaKind::kAnon,
                     "[data]", buf, false);
    kernel_.fault_in_all(pid, vma);
    return pid;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
};

TEST_F(DumpRestoreTest, DumpProducesAllImageFiles) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  EXPECT_TRUE(dump.images.has("inventory.img"));
  EXPECT_TRUE(dump.images.has("core-" + std::to_string(pid) + ".img"));
  EXPECT_TRUE(dump.images.has("mm.img"));
  EXPECT_TRUE(dump.images.has("pagemap.img"));
  EXPECT_TRUE(dump.images.has("pages-1.img"));
  EXPECT_TRUE(dump.images.has("files.img"));
  EXPECT_TRUE(dump.images.has("stats.img"));
  EXPECT_NO_THROW(dump.images.validate());
}

TEST_F(DumpRestoreTest, DumpKillsTargetByDefault) {
  const os::Pid pid = make_target();
  Dumper{kernel_}.dump(pid);
  EXPECT_THROW(kernel_.process(pid), std::invalid_argument);  // reaped
}

TEST_F(DumpRestoreTest, LeaveRunningKeepsTargetAlive) {
  const os::Pid pid = make_target();
  DumpOptions opts;
  opts.leave_running = true;
  Dumper{kernel_}.dump(pid, opts);
  EXPECT_TRUE(kernel_.alive(pid));
  EXPECT_EQ(kernel_.process(pid).state(), os::ProcState::kRunning);
  EXPECT_FALSE(kernel_.process(pid).parasite_present());
}

TEST_F(DumpRestoreTest, DumpAccountsPayloadBytes) {
  const os::Pid pid = make_target();
  const std::uint64_t resident = kernel_.process(pid).mm().resident_bytes();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  EXPECT_EQ(dump.stats.payload_bytes, resident);
  EXPECT_EQ(dump.stats.pages_dumped * kPageSize, resident);
  EXPECT_EQ(dump.images.get("pages-1.img").nominal_size, resident);
}

TEST_F(DumpRestoreTest, DigestModeKeepsHostMemorySmall) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  // 8 bytes/page of digests instead of 4096 of payload.
  EXPECT_LT(dump.images.real_total(), dump.images.nominal_total() / 100);
}

TEST_F(DumpRestoreTest, UnprivilegedDumpRequiresSomeCapability) {
  const os::Pid pid = make_target();
  DumpOptions opts;
  opts.criu_caps = Cap::kNone;
  EXPECT_THROW(Dumper{kernel_}.dump(pid, opts), std::runtime_error);
  // CAP_CHECKPOINT_RESTORE alone suffices [11].
  opts.criu_caps = Cap::kCheckpointRestore;
  EXPECT_NO_THROW(Dumper{kernel_}.dump(pid, opts));
}

TEST_F(DumpRestoreTest, DumpNonRunningThrows) {
  const os::Pid pid = make_target();
  kernel_.kill_process(pid);
  EXPECT_THROW(Dumper{kernel_}.dump(pid), std::logic_error);
}

TEST_F(DumpRestoreTest, RestoreRebuildsProcessState) {
  const os::Pid pid = make_target();
  const os::Process& original = kernel_.process(pid);
  const std::string name = original.name();
  const auto argv = original.argv();
  const auto ns = original.ns();
  const std::size_t n_threads = original.threads().size();
  const std::size_t n_vmas = original.mm().vmas().size();
  const std::uint64_t resident = original.mm().resident_bytes();
  const auto regs0 = original.threads()[0].regs;

  const DumpResult dump = Dumper{kernel_}.dump(pid);
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images);

  const os::Process& clone = kernel_.process(restored.pid);
  EXPECT_EQ(clone.name(), name);
  EXPECT_EQ(clone.argv(), argv);
  EXPECT_EQ(clone.ns(), ns);
  EXPECT_EQ(clone.threads().size(), n_threads);
  EXPECT_EQ(clone.threads()[0].regs, regs0);
  EXPECT_EQ(clone.mm().vmas().size(), n_vmas);
  EXPECT_EQ(clone.mm().resident_bytes(), resident);
  EXPECT_EQ(clone.state(), os::ProcState::kRunning);
  EXPECT_EQ(restored.pages_restored * kPageSize, resident);
}

TEST_F(DumpRestoreTest, RestoreRebuildsFds) {
  const os::Pid pid = make_target();
  const auto fds = kernel_.process(pid).fds();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images);
  const auto& restored_fds = kernel_.process(restored.pid).fds();
  ASSERT_EQ(restored_fds.size(), fds.size());
  for (const auto& [fd, desc] : fds) {
    ASSERT_TRUE(restored_fds.contains(fd));
    EXPECT_EQ(restored_fds.at(fd).path, desc.path);
    EXPECT_EQ(restored_fds.at(fd).kind, desc.kind);
  }
}

TEST_F(DumpRestoreTest, RestoredMemoryContentIsByteIdentical) {
  std::vector<std::uint8_t> payload(kPageSize * 5);
  std::iota(payload.begin(), payload.end(), 1);
  const os::Pid pid = make_buffer_target(payload);

  DumpOptions opts;
  opts.payload_mode = PayloadMode::kFull;  // buffer memory needs raw bytes
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images);

  const os::Process& clone = kernel_.process(restored.pid);
  ASSERT_EQ(clone.mm().vmas().size(), 1u);
  const os::Vma& vma = clone.mm().vmas()[0];
  const auto* buf = dynamic_cast<const os::BufferSource*>(vma.source.get());
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->bytes(), payload);
}

TEST_F(DumpRestoreTest, DigestModeCannotRestoreBufferMemory) {
  const os::Pid pid = make_buffer_target(std::vector<std::uint8_t>(kPageSize, 1));
  const DumpResult dump = Dumper{kernel_}.dump(pid);  // digest mode default
  EXPECT_THROW(Restorer{kernel_}.restore(dump.images), std::runtime_error);
}

TEST_F(DumpRestoreTest, VerifyPagesPassesOnIntactImages) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  RestoreOptions opts;
  opts.verify_pages = true;
  EXPECT_NO_THROW(Restorer{kernel_}.restore(dump.images, opts));
}

TEST_F(DumpRestoreTest, RestoreOriginalPidNeedsCapability) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);

  RestoreOptions opts;
  opts.restore_original_pid = true;
  opts.criu_caps = Cap::kSysPtrace;  // not enough
  EXPECT_THROW(Restorer{kernel_}.restore(dump.images, opts), std::runtime_error);

  opts.criu_caps = Cap::kCheckpointRestore;
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_EQ(restored.pid, pid);
}

TEST_F(DumpRestoreTest, RestoreTwiceGivesTwoReplicas) {
  // The same snapshot seeds many replicas (Section 3.1).
  const os::Pid pid = make_target();
  const std::uint64_t resident = kernel_.process(pid).mm().resident_bytes();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  const RestoreResult r1 = Restorer{kernel_}.restore(dump.images);
  const RestoreResult r2 = Restorer{kernel_}.restore(dump.images);
  EXPECT_NE(r1.pid, r2.pid);
  EXPECT_EQ(kernel_.process(r1.pid).mm().resident_bytes(), resident);
  EXPECT_EQ(kernel_.process(r2.pid).mm().resident_bytes(), resident);
}

TEST_F(DumpRestoreTest, ParasiteNotPartOfSnapshot) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  for (const VmaEntry& vma : decode_mm(dump.images.get("mm.img").bytes))
    EXPECT_NE(vma.name, "[criu-parasite]");
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images);
  EXPECT_FALSE(kernel_.process(restored.pid).parasite_present());
}

TEST_F(DumpRestoreTest, IncrementalDumpOnlyCapturesDirtyPages) {
  const os::Pid pid = make_target();

  // Pre-dump: full snapshot, leaves running, resets soft-dirty.
  DumpOptions pre;
  pre.pre_dump = true;
  const DumpResult parent = Dumper{kernel_}.dump(pid, pre);
  const std::uint64_t full_pages = parent.stats.pages_dumped;
  ASSERT_GT(full_pages, 0u);

  // Dirty a small part of the heap.
  const os::Vma* heap = nullptr;
  for (const os::Vma& vma : kernel_.process(pid).mm().vmas())
    if (vma.name == "[big-heap]") heap = &vma;
  ASSERT_NE(heap, nullptr);
  kernel_.process(pid).mm().touch(heap->id, 0, 5, /*write=*/true);

  const ImageDir* parents[] = {&parent.images};
  DumpOptions inc;
  inc.parent_chain = parents;
  const DumpResult child = Dumper{kernel_}.dump(pid, inc);
  EXPECT_EQ(child.stats.pages_dumped, 5u);
  EXPECT_LT(child.stats.payload_bytes, parent.stats.payload_bytes);
}

TEST_F(DumpRestoreTest, ChainRestoreRebuildsFullResidency) {
  const os::Pid pid = make_target();
  const std::uint64_t resident = kernel_.process(pid).mm().resident_bytes();

  DumpOptions pre;
  pre.pre_dump = true;
  const DumpResult parent = Dumper{kernel_}.dump(pid, pre);

  const os::Vma* heap = nullptr;
  for (const os::Vma& vma : kernel_.process(pid).mm().vmas())
    if (vma.name == "[big-heap]") heap = &vma;
  kernel_.process(pid).mm().touch(heap->id, 0, 5, /*write=*/true);

  const ImageDir* parents[] = {&parent.images};
  DumpOptions inc;
  inc.parent_chain = parents;
  const DumpResult child = Dumper{kernel_}.dump(pid, inc);

  const ImageLink lower[] = {{&parent.images, "", ""}};
  const RestoreResult restored =
      Restorer{kernel_}.restore(child.images, {}, lower);
  EXPECT_EQ(kernel_.process(restored.pid).mm().resident_bytes(), resident);
}

TEST_F(DumpRestoreTest, RestoreNullLinkThrows) {
  const DumpResult dump = Dumper{kernel_}.dump(make_target());
  const ImageLink lower[] = {{nullptr, "", ""}};
  EXPECT_THROW(Restorer{kernel_}.restore(dump.images, {}, lower),
               std::invalid_argument);
}

TEST_F(DumpRestoreTest, PersistedImagesChargeStorage) {
  const os::Pid pid = make_target();
  DumpOptions opts;
  opts.fs_prefix = "/snapshots/fn/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
  EXPECT_TRUE(kernel_.fs().exists("/snapshots/fn/pages-1.img"));
  EXPECT_EQ(kernel_.fs().size_of("/snapshots/fn/pages-1.img"),
            dump.stats.payload_bytes);

  RestoreOptions ropts;
  ropts.fs_prefix = "/snapshots/fn/";
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, ropts);
  EXPECT_GT(sim_.now().to_millis(), t0);
}

TEST_F(DumpRestoreTest, InMemoryRestoreFasterThanColdDisk) {
  const os::Pid pid = make_target();
  DumpOptions opts;
  opts.fs_prefix = "/snapshots/fn/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
  kernel_.fs().drop_caches();

  RestoreOptions cold;
  cold.fs_prefix = "/snapshots/fn/";
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, cold);
  const double cold_ms = sim_.now().to_millis() - t0;

  kernel_.fs().drop_caches();
  RestoreOptions mem;
  mem.fs_prefix = "/snapshots/fn/";
  mem.in_memory = true;  // Venkatesh et al. [26]
  const double t1 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, mem);
  const double mem_ms = sim_.now().to_millis() - t1;
  EXPECT_LT(mem_ms, cold_ms);
}

TEST_F(DumpRestoreTest, ContentionSlowsRestore) {
  const os::Pid pid = make_target();
  DumpOptions opts;
  opts.fs_prefix = "/snapshots/fn/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);

  RestoreOptions alone;
  alone.fs_prefix = "/snapshots/fn/";
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, alone);
  const double alone_ms = sim_.now().to_millis() - t0;

  RestoreOptions shared;
  shared.fs_prefix = "/snapshots/fn/";
  shared.io_contention = 8.0;
  const double t1 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, shared);
  const double shared_ms = sim_.now().to_millis() - t1;
  EXPECT_GT(shared_ms, alone_ms);
}

TEST_F(DumpRestoreTest, StatsRecordWarmupRequests) {
  const os::Pid pid = make_target();
  DumpOptions opts;
  opts.warmup_requests = 3;
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
  EXPECT_EQ(decode_stats(dump.images.get("stats.img").bytes).warmup_requests, 3u);
}

TEST_F(DumpRestoreTest, DumpDurationRecorded) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  EXPECT_GT(dump.stats.dump_duration_ns, 0);
  EXPECT_EQ(dump.duration.nanos_count(), dump.stats.dump_duration_ns);
}

TEST_F(DumpRestoreTest, ZeroPagesCarryNoPayload) {
  // A buffer with a zero middle: CRIU's zero-page detection must skip it.
  std::vector<std::uint8_t> payload(kPageSize * 8, 0);
  for (std::size_t i = 0; i < kPageSize * 2; ++i) payload[i] = 0xAA;  // pages 0-1
  for (std::size_t i = kPageSize * 6; i < payload.size(); ++i) payload[i] = 0xBB;
  const os::Pid pid = make_buffer_target(payload);

  DumpOptions opts;
  opts.payload_mode = PayloadMode::kFull;
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
  // 4 zero pages in the buffer (+ pages 0-1, 6-7 with data).
  EXPECT_EQ(dump.stats.zero_pages, 4u);
  EXPECT_EQ(dump.stats.pages_dumped, 4u);
  EXPECT_EQ(dump.stats.payload_bytes, 4 * kPageSize);
  // The zero run is marked in the pagemap.
  bool zero_run_found = false;
  for (const PagemapEntry& e : decode_pagemap(dump.images.get("pagemap.img").bytes))
    if (e.zero && e.pages == 4) zero_run_found = true;
  EXPECT_TRUE(zero_run_found);
}

TEST_F(DumpRestoreTest, ZeroPagesRestoreByteIdentical) {
  std::vector<std::uint8_t> payload(kPageSize * 6, 0);
  for (std::size_t i = kPageSize; i < kPageSize * 2; ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  const os::Pid pid = make_buffer_target(payload);

  DumpOptions opts;
  opts.payload_mode = PayloadMode::kFull;
  const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images);

  const os::Process& clone = kernel_.process(restored.pid);
  const auto* buf =
      dynamic_cast<const os::BufferSource*>(clone.mm().vmas()[0].source.get());
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->bytes(), payload);
  // Full residency restored, payload read only for the non-zero pages.
  EXPECT_EQ(clone.mm().resident_bytes(), 6 * kPageSize);
}

TEST_F(DumpRestoreTest, ZeroHeavySnapshotIsSmallAndRestoresFaster) {
  // Two identical-size processes; one's heap is all zeros (calloc'd but
  // untouched data), the other's is fully patterned.
  auto build = [&](bool zero) {
    std::vector<std::uint8_t> payload(kPageSize * 512, 0);
    if (!zero)
      for (std::size_t i = 0; i < payload.size(); i += 7)
        payload[i] = static_cast<std::uint8_t>(i);
    return make_buffer_target(std::move(payload));
  };
  DumpOptions opts;
  opts.payload_mode = PayloadMode::kFull;
  opts.fs_prefix = "/snap/zero/";
  const DumpResult zero_dump = Dumper{kernel_}.dump(build(true), opts);
  opts.fs_prefix = "/snap/dense/";
  const DumpResult dense_dump = Dumper{kernel_}.dump(build(false), opts);

  EXPECT_LT(zero_dump.images.nominal_total(),
            dense_dump.images.nominal_total() / 10);

  RestoreOptions ropts;
  ropts.fs_prefix = "/snap/zero/";
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(zero_dump.images, ropts);
  const double zero_ms = sim_.now().to_millis() - t0;
  ropts.fs_prefix = "/snap/dense/";
  const double t1 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dense_dump.images, ropts);
  const double dense_ms = sim_.now().to_millis() - t1;
  EXPECT_LT(zero_ms, dense_ms);
}

TEST_F(DumpRestoreTest, LazyRestoreMapsOnlyWorkingSet) {
  const os::Pid pid = make_target();
  const std::uint64_t resident = kernel_.process(pid).mm().resident_bytes();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/lazy/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/lazy/";
  opts.paging = PagingPolicy::lazy(0.25);
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);

  ASSERT_NE(restored.lazy_server, nullptr);
  const std::uint64_t eager = kernel_.process(restored.pid).mm().resident_bytes();
  EXPECT_LT(eager, resident / 2);
  EXPECT_GT(eager, 0u);
  EXPECT_EQ(eager + restored.lazy_server->pending_pages() * os::kPageSize,
            resident);
}

TEST_F(DumpRestoreTest, LazyRestoreIsFasterUpFront) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/lazyfast/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions eager;
  eager.fs_prefix = "/snap/lazyfast/";
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, eager);
  const double eager_ms = sim_.now().to_millis() - t0;

  RestoreOptions lazy = eager;
  lazy.paging = PagingPolicy::lazy(0.1);
  const double t1 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, lazy);
  const double lazy_ms = sim_.now().to_millis() - t1;
  EXPECT_LT(lazy_ms, eager_ms);
}

TEST_F(DumpRestoreTest, LazyServerPagesInRemainderAtHigherPerPageCost) {
  const os::Pid pid = make_target();
  const std::uint64_t resident = kernel_.process(pid).mm().resident_bytes();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/lazyserve/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/lazyserve/";
  opts.paging = PagingPolicy::lazy(0.0);  // everything deferred
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_NE(restored.lazy_server, nullptr);

  // Serve half, then the rest.
  const std::uint64_t total = restored.lazy_server->pending_pages();
  EXPECT_EQ(total * os::kPageSize, resident);
  const double t0 = sim_.now().to_millis();
  EXPECT_EQ(restored.lazy_server->page_in(total / 2), total / 2);
  const double half_ms = sim_.now().to_millis() - t0;
  EXPECT_GT(half_ms, 0.0);
  EXPECT_EQ(restored.lazy_server->page_in_all(), total - total / 2);
  EXPECT_TRUE(restored.lazy_server->done());
  EXPECT_EQ(kernel_.process(restored.pid).mm().resident_bytes(), resident);

  // uffd faults are pricier per page than eager restore's minor faults.
  const double per_page_us = half_ms * 1000.0 / static_cast<double>(total / 2);
  EXPECT_GT(per_page_us, kernel_.costs().minor_fault.to_micros());
}

TEST_F(DumpRestoreTest, LazyServerIdempotentWhenDrained) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/lazydrain/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);
  RestoreOptions opts;
  opts.fs_prefix = "/snap/lazydrain/";
  opts.paging = PagingPolicy::lazy();
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);
  restored.lazy_server->page_in_all();
  EXPECT_EQ(restored.lazy_server->page_in(10), 0u);
}

TEST_F(DumpRestoreTest, RemoteFetchPaysNetworkOnceThenLocalCache) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/registry/fn/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);
  // The images live on a remote registry: this node has never read them.
  kernel_.fs().drop_caches();

  RestoreOptions opts;
  opts.fs_prefix = "/registry/fn/";
  opts.remote_fetch = true;
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, opts);
  const double first_ms = sim_.now().to_millis() - t0;

  const double t1 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, opts);
  const double second_ms = sim_.now().to_millis() - t1;

  // First restore crosses the network (~1 Gb/s); later ones are local.
  EXPECT_GT(first_ms, second_ms * 5);
  const double payload_mib =
      static_cast<double>(dump.stats.payload_bytes) / (1 << 20);
  EXPECT_GT(first_ms, payload_mib / 120.0 * 1000.0 * 0.9);
}

TEST_F(DumpRestoreTest, RemoteFetchSlowerThanLocalColdDisk) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/registry/fn2/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  kernel_.fs().drop_caches();
  RestoreOptions local;
  local.fs_prefix = "/registry/fn2/";
  const double t0 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, local);
  const double local_ms = sim_.now().to_millis() - t0;

  kernel_.fs().drop_caches();
  RestoreOptions remote = local;
  remote.remote_fetch = true;
  const double t1 = sim_.now().to_millis();
  Restorer{kernel_}.restore(dump.images, remote);
  const double remote_ms = sim_.now().to_millis() - t1;
  // 120 MiB/s network < 450 MiB/s disk.
  EXPECT_GT(remote_ms, local_ms);
}

TEST_F(DumpRestoreTest, EagerRestoreHasNoLazyServer) {
  const os::Pid pid = make_target();
  const DumpResult dump = Dumper{kernel_}.dump(pid);
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images);
  EXPECT_EQ(restored.lazy_server, nullptr);
}

// --- typed restore errors (criu/error.hpp) --------------------------------

// Copy an image directory, optionally dropping one file and/or corrupting
// one file's bytes (single byte flipped mid-body, which the trailing CRC
// must catch).
ImageDir copy_images(const ImageDir& src, const std::string& drop = "",
                     const std::string& corrupt = "") {
  ImageDir out;
  for (const std::string& name : src.names()) {
    if (name == drop) continue;
    const ImageDir::ImageFile& f = src.get(name);
    std::vector<std::uint8_t> bytes = f.bytes;
    if (name == corrupt) bytes[bytes.size() / 2] ^= 0x40;
    out.put(name, std::move(bytes), f.nominal_size);
  }
  return out;
}

TEST_F(DumpRestoreTest, ChainRestoreMissingParentPagemapIsTypedError) {
  const os::Pid pid = make_target();
  DumpOptions pre;
  pre.pre_dump = true;
  const DumpResult parent = Dumper{kernel_}.dump(pid, pre);
  const ImageDir* parents[] = {&parent.images};
  DumpOptions inc;
  inc.parent_chain = parents;
  const DumpResult child = Dumper{kernel_}.dump(pid, inc);

  const ImageDir broken = copy_images(parent.images, /*drop=*/"pagemap.img");
  const ImageLink lower[] = {{&broken, "", ""}};
  try {
    Restorer{kernel_}.restore(child.images, {}, lower);
    FAIL() << "restore succeeded with a gutted parent link";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kMissingImage);
    EXPECT_FALSE(e.transient());  // retrying cannot conjure the file back
  }
}

TEST_F(DumpRestoreTest, ChainRestoreCrcMismatchInMiddleLinkIsTypedError) {
  const os::Pid pid = make_target();
  DumpOptions pre;
  pre.pre_dump = true;
  const DumpResult a = Dumper{kernel_}.dump(pid, pre);

  const os::Vma* heap = nullptr;
  for (const os::Vma& vma : kernel_.process(pid).mm().vmas())
    if (vma.name == "[big-heap]") heap = &vma;
  ASSERT_NE(heap, nullptr);
  kernel_.process(pid).mm().touch(heap->id, 0, 3, /*write=*/true);
  const ImageDir* before_mid[] = {&a.images};
  DumpOptions mid;
  mid.pre_dump = true;
  mid.parent_chain = before_mid;
  const DumpResult b = Dumper{kernel_}.dump(pid, mid);

  kernel_.process(pid).mm().touch(heap->id, 5, 3, /*write=*/true);
  const ImageDir* before_last[] = {&b.images};
  DumpOptions last;
  last.parent_chain = before_last;
  const DumpResult c = Dumper{kernel_}.dump(pid, last);

  const ImageDir flipped =
      copy_images(b.images, /*drop=*/"", /*corrupt=*/"pagemap.img");
  const ImageLink lower[] = {{&a.images, "", ""}, {&flipped, "", ""}};
  try {
    Restorer{kernel_}.restore(c.images, {}, lower);
    FAIL() << "restore accepted a bit-flipped middle link";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_TRUE(e.transient());  // a re-read / re-fetch may see good bytes
  }
  // The intact chain still restores: corruption detection does not poison
  // the shared decode caches of the healthy links.
  const ImageLink good[] = {{&a.images, "", ""}, {&b.images, "", ""}};
  EXPECT_NO_THROW(Restorer{kernel_}.restore(c.images, {}, good));
}

TEST_F(DumpRestoreTest, TruncatedPersistedImageIsTypedError) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/trunc/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  // Half the page payload went missing on disk (partial write).
  const std::uint64_t full = kernel_.fs().size_of("/snap/trunc/pages-1.img");
  kernel_.fs().truncate("/snap/trunc/pages-1.img", full / 2);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/trunc/";
  try {
    Restorer{kernel_}.restore(dump.images, opts);
    FAIL() << "restore read a truncated pages-1.img without noticing";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kTruncatedImage);
    EXPECT_FALSE(e.transient());  // same bytes missing on every retry
  }
}

// The persisted-image read path resolves each file once and charges the
// read through that handle; a device error there must still surface typed
// and leave no half-restored process behind.
TEST_F(DumpRestoreTest, InjectedReadErrorOnPersistedImageIsTypedIoError) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/ioerr/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  os::FaultPlan plan;
  plan.image_read_error_rate = 1.0;  // every read of an image file fails
  kernel_.faults().configure(plan);
  const std::size_t procs_before = kernel_.process_count();

  RestoreOptions opts;
  opts.fs_prefix = "/snap/ioerr/";
  try {
    Restorer{kernel_}.restore(dump.images, opts);
    FAIL() << "restore read through an injected device error";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kIoError);
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string{e.what()}.find("/snap/ioerr/"), std::string::npos)
        << e.what();
  }
  // The first image file read drew the fault, and nothing was cloned.
  EXPECT_EQ(kernel_.faults().fired(os::FaultSite::kImageReadError), 1u);
  EXPECT_EQ(kernel_.process_count(), procs_before);
}

TEST_F(DumpRestoreTest, MissingPersistedImageFileFailsBeforeAnyClone) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/gone/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);
  kernel_.fs().remove("/snap/gone/mm.img");
  const std::size_t procs_before = kernel_.process_count();

  RestoreOptions opts;
  opts.fs_prefix = "/snap/gone/";
  try {
    Restorer{kernel_}.restore(dump.images, opts);
    FAIL() << "restore read an image file that is not on the filesystem";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("no such file: /snap/gone/mm.img"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(kernel_.process_count(), procs_before);
}

// Simulated restore times of make_target()'s snapshot under the default cost
// model. Pinned to the nanosecond: the host-side read path may get cheaper,
// the simulated cost of a restore may not move.
constexpr std::int64_t kColdRestoreNs = 3'341'091;
constexpr std::int64_t kWarmRestoreNs = 753'999;

TEST_F(DumpRestoreTest, RepeatedPersistedRestoresChargeIdenticalTime) {
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/steady/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/steady/";
  Restorer restorer{kernel_};
  kernel_.fs().drop_caches();
  std::vector<RestoreResult> runs;
  for (int i = 0; i < 4; ++i) {
    runs.push_back(restorer.restore(dump.images, opts));
    kernel_.kill_process(runs.back().pid);
    kernel_.reap(runs.back().pid);
  }
  // The first restore reads the cold disk; every later one the page cache.
  EXPECT_EQ(runs[0].duration.nanos_count(), kColdRestoreNs);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].duration.nanos_count(), kWarmRestoreNs) << "restore " << i;
    EXPECT_EQ(runs[i].bytes_read, runs[0].bytes_read);
    EXPECT_EQ(runs[i].pages_restored, runs[0].pages_restored);
  }
}

TEST_F(DumpRestoreTest, ContendedRestoreIsDeterministic) {
  // io_contention scales charged I/O; it must not introduce any
  // nondeterminism (same cold cache + same contention => identical time).
  const os::Pid pid = make_target();
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/det/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/det/";
  opts.io_contention = 8.0;

  kernel_.fs().drop_caches();
  const auto t0 = sim_.now();
  const RestoreResult r1 = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration first = sim_.now() - t0;

  kernel_.fs().drop_caches();
  const auto t1 = sim_.now();
  const RestoreResult r2 = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration second = sim_.now() - t1;

  EXPECT_EQ(first.nanos_count(), second.nanos_count());
  EXPECT_EQ(r1.pages_restored, r2.pages_restored);
}

}  // namespace
}  // namespace prebake::criu
