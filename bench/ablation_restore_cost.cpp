// Ablation A — restore cost decomposition (Section 3.1: "the larger the
// snapshot, the longer it takes to be restored") and the in-memory image
// optimization discussed as future work (Section 7, Venkatesh et al. [26]).
// Sweeps the snapshot size and compares cold-disk, page-cache and in-memory
// restore paths.
#include <cstdio>

#include "criu/dump.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/report.hpp"

using namespace prebake;

namespace {

criu::DumpResult make_snapshot(os::Kernel& kernel, std::uint64_t heap_mib,
                               const std::string& prefix) {
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId heap = kernel.mmap(
      pid, heap_mib * 1024 * 1024, os::Prot::kReadWrite, os::VmaKind::kAnon,
      "[heap]", std::make_shared<os::PatternSource>(heap_mib), false);
  kernel.fault_in_all(pid, heap);
  criu::DumpOptions opts;
  opts.fs_prefix = prefix;
  return criu::Dumper{kernel}.dump(pid, opts);
}

}  // namespace

int main() {
  std::printf("== Ablation A: restore time vs snapshot size and image "
              "placement ==\n\n");

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  kernel.fs().create("/bin/app", 2 * 1024 * 1024);

  exp::TextTable table{{"Snapshot", "Dump", "Restore (remote 1Gb/s)",
                        "Restore (cold disk)", "Restore (page cache)",
                        "Restore (in-memory)"}};

  for (const std::uint64_t mib : {4, 16, 64, 128, 256, 512}) {
    const std::string prefix = "/snap/" + std::to_string(mib) + "/";
    const criu::DumpResult dump = make_snapshot(kernel, mib, prefix);

    auto timed_restore = [&](bool drop_cache, bool in_memory, bool remote) {
      if (drop_cache) kernel.fs().drop_caches();
      criu::RestoreOptions opts;
      opts.fs_prefix = prefix;
      opts.in_memory = in_memory;
      opts.remote_fetch = remote;
      const sim::TimePoint t0 = sim.now();
      const criu::RestoreResult r = criu::Restorer{kernel}.restore(dump.images, opts);
      kernel.kill_process(r.pid);
      kernel.reap(r.pid);
      return (sim.now() - t0).to_millis();
    };

    // Remote first (checkpoint/restore as a service, Section 7): the node
    // pulls the images from the registry over the network.
    const double remote = timed_restore(true, false, true);
    const double cold = timed_restore(true, false, false);
    const double cached = timed_restore(false, false, false);
    const double in_memory = timed_restore(true, true, false);

    table.add_row({exp::fmt_mib(dump.images.nominal_total()),
                   exp::fmt_ms(dump.duration.to_millis()), exp::fmt_ms(remote),
                   exp::fmt_ms(cold), exp::fmt_ms(cached),
                   exp::fmt_ms(in_memory)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Shape: restore grows linearly with snapshot size; a remote "
              "registry adds a network-bandwidth\nfirst-fetch penalty, while "
              "keeping images in memory removes the cold-disk penalty "
              "entirely\n(the in-memory CRIU optimization the paper cites as "
              "future work [26]).\n");

  // Incremental (pre-dump) chains: how much does a dirty fraction cost?
  std::printf("\n-- pre-dump + incremental dump (dirty-page tracking) --\n");
  exp::TextTable inc{{"Dirty fraction", "Full dump pages", "Incremental pages",
                      "Incremental payload"}};
  for (const int dirty_pct : {1, 5, 20, 50, 100}) {
    const std::string prefix = "/snap/inc" + std::to_string(dirty_pct) + "/";
    const os::Pid pid = kernel.clone_process(os::kNoPid);
    kernel.exec(pid, "/bin/app", {"/bin/app"});
    const std::uint64_t pages = 8192;  // 32 MiB heap
    const os::VmaId heap = kernel.mmap(pid, pages * os::kPageSize,
                                       os::Prot::kReadWrite, os::VmaKind::kAnon,
                                       "[heap]",
                                       std::make_shared<os::PatternSource>(7),
                                       false);
    kernel.fault_in_all(pid, heap);

    criu::DumpOptions pre;
    pre.pre_dump = true;
    pre.fs_prefix = prefix + "parent/";
    const criu::DumpResult parent = criu::Dumper{kernel}.dump(pid, pre);

    kernel.process(pid).mm().touch(heap, 0, pages * dirty_pct / 100, true);

    const criu::ImageDir* parents[] = {&parent.images};
    criu::DumpOptions final_dump;
    final_dump.parent_chain = parents;
    final_dump.fs_prefix = prefix + "child/";
    const criu::DumpResult child = criu::Dumper{kernel}.dump(pid, final_dump);

    char pct[16];
    std::snprintf(pct, sizeof pct, "%d%%", dirty_pct);
    inc.add_row({pct, std::to_string(parent.stats.pages_dumped),
                 std::to_string(child.stats.pages_dumped),
                 exp::fmt_mib(child.stats.payload_bytes)});
  }
  std::printf("%s", inc.to_string().c_str());
  return 0;
}
