// Starting function replicas: the Vanilla fork-exec path versus the
// prebaking restore path. This is the measurement surface for every start-up
// experiment in the paper.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "criu/image.hpp"
#include "criu/restore.hpp"
#include "funcs/handlers.hpp"
#include "obs/tracer.hpp"
#include "os/kernel.hpp"
#include "rt/runtime.hpp"

namespace prebake::core {

// Phase breakdown, matching the paper's Figure 4 instrumentation: CLONE,
// EXEC, RTS (exec end -> main()), APPINIT (main() -> ready). For prebaked
// starts the paper folds everything into APPINIT ("prebaking brings the RTS
// down to 0 ms"); we additionally expose the raw restore time.
struct StartupBreakdown {
  sim::Duration clone_time;
  sim::Duration exec_time;
  sim::Duration rts_time;
  sim::Duration appinit_time;
  sim::Duration restore_time;  // prebake only: CRIU restore proper
  sim::Duration total;
  // Resilience accounting (prebake only). `restore_attempts` counts restore
  // tries (1 on the happy path, 0 for vanilla/zygote starts); `fault_time`
  // is the time burned in failed attempts plus retry backoff before the
  // start succeeded; `fell_back_to_vanilla` marks a start whose restore
  // budget ran out and which completed via the Vanilla path instead.
  std::uint32_t restore_attempts = 0;
  bool fell_back_to_vanilla = false;
  sim::Duration fault_time;
  // Id of the "start.*" span recorded for this start, linking the breakdown
  // to its trace (0 when the kernel's tracer was disabled).
  obs::SpanId span_id = 0;

  // The paper's stacked view: prebake folds restore+fixups into APPINIT.
  sim::Duration appinit_stacked() const { return appinit_time + restore_time; }
};

struct ReplicaProcess {
  os::Pid pid = os::kNoPid;
  std::unique_ptr<rt::ManagedRuntime> runtime;
  StartupBreakdown breakdown;
  // Which paging mode the restore ran under (kEager for vanilla/zygote
  // starts and restore-less paths).
  criu::PagingMode paging_mode = criu::PagingMode::kEager;
  // What the restore reported (default-constructed for vanilla/zygote starts
  // and Vanilla fallbacks). Its lazy_server, if any, holds the replica's
  // not-yet-faulted pages: the platform pages it in on first use (all of it
  // for lazy, the demand set for working-set modes). Its ws_recorder, if
  // any, is capturing the first invocation's working set (DESIGN.md §6j);
  // the platform closes it with criu::finish_ws_recording.
  criu::RestoreResult restored;
};

// How hard to fight for a restore before giving up. The defaults reproduce
// the legacy behavior exactly: one attempt, failure propagates to the
// caller, nothing extra is charged.
struct RestorePolicy {
  // Restore tries against the snapshot. Only transient errors (device
  // errors, aborted fetches, corrupt read copies) are retried; a truncated
  // on-disk image or a permission error fails every attempt identically and
  // short-circuits.
  int max_attempts = 1;
  // Sleep backoff * attempt-number between tries (linear backoff).
  sim::Duration retry_backoff = sim::Duration::millis(5);
  // Give up retrying once this much simulated time has elapsed since the
  // start began. Zero = unbounded.
  sim::Duration deadline{};
  // When the restore budget is exhausted, complete the start via the
  // Vanilla path instead of throwing (recorded in StartupBreakdown).
  bool fallback_to_vanilla = false;
};

// Everything a prebaked start can be asked to do, in one struct. `restore`
// is the single source of truth for the restore-side knobs (fs_prefix,
// io_contention, in_memory, remote_fetch, the PagingPolicy,
// registry-fetch retry budget — see criu::RestoreOptions) and is handed to
// the Restorer as-is, except that the service always forces
// restore_original_pid=false and runs CRIU with the launcher's capabilities:
// those belong to the deployment, not the caller. `policy` governs the
// retry / deadline / Vanilla-fallback behavior around the restore.
//
// Designated-initializer friendly:
//   startup.start_prebaked(spec, images,
//                          {.restore = {.io_contention = 4.0,
//                                       .fs_prefix = "/node/snap"},
//                           .policy = {.max_attempts = 3}},
//                          rng);
struct PrebakedStartOptions {
  criu::RestoreOptions restore;
  RestorePolicy policy;  // retry / deadline / fallback behavior
  // Layered base+delta start (DESIGN.md §6k): when set, `images` passed to
  // start_prebaked is the app *delta* and this names the shared base-runtime
  // layer under it. fs_prefix/store_key address the base's own files and
  // template identity on this node; the delta's come from `restore` as
  // usual. Unset = monolithic restore (the default everywhere).
  std::optional<criu::ImageLink> base;
};

class StartupService {
 public:
  StartupService(os::Kernel& kernel, rt::RuntimeCosts costs,
                 funcs::SharedAssets& assets);

  // The Vanilla path: clone + exec + runtime bootstrap + app init.
  ReplicaProcess start_vanilla(const rt::FunctionSpec& spec, sim::Rng rng);

  // The SOCK-style zygote path [18,19]: fork a pre-booted runtime process
  // (COW) and run only app_init in the child. The zygote itself is created
  // lazily per runtime binary — a deploy-time cost, like baking a snapshot.
  // Skips CLONE(exec)+RTS but, unlike prebaking, still pays APPINIT and the
  // I/O-heavy initialization SOCK does not address (paper Section 6).
  ReplicaProcess start_zygote_fork(const rt::FunctionSpec& spec, sim::Rng rng);

  // The prebaking path: CRIU-restore the snapshot, re-attach the runtime.
  // This is the one canonical entry point; every knob lives on
  // PrebakedStartOptions. Restore failures surface as typed
  // criu::RestoreError unless options.policy requests retries or Vanilla
  // fallback.
  ReplicaProcess start_prebaked(const rt::FunctionSpec& spec,
                                const criu::ImageDir& images,
                                const PrebakedStartOptions& options,
                                sim::Rng rng);

  os::Pid launcher_pid() const { return launcher_; }
  os::Kernel& kernel() { return *kernel_; }
  const rt::RuntimeCosts& runtime_costs() const { return costs_; }
  funcs::SharedAssets& assets() { return *assets_; }

  // Tear down a replica (platform reclaim).
  void reclaim(ReplicaProcess& replica);

 private:
  os::Pid ensure_zygote(const rt::FunctionSpec& spec);

  os::Kernel* kernel_;
  rt::RuntimeCosts costs_;
  funcs::SharedAssets* assets_;
  os::Pid launcher_ = os::kNoPid;  // the deployer/watchdog parent process
  // One booted zygote per runtime binary (created on first use).
  std::map<std::string, os::Pid> zygotes_;
};

}  // namespace prebake::core
