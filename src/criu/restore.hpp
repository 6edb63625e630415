// The restore side of the CRIU-model engine.
//
// Mirrors CRIU's restore: the restorer process reads the image files,
// transmutes itself into the checkpointed process (clone — optionally with
// the original pid, which needs CAP_CHECKPOINT_RESTORE), recreates
// namespaces and open files, then remaps and faults the checkpointed memory.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "criu/error.hpp"
#include "criu/image.hpp"
#include "criu/paging.hpp"
#include "criu/ws.hpp"
#include "os/kernel.hpp"

namespace prebake::criu {

class PageStore;

struct RestoreOptions {
  // Reuse the checkpointed pid (requires CAP_CHECKPOINT_RESTORE or root).
  bool restore_original_pid = false;
  // Recompute every page digest after mapping and compare against the image
  // (integrity check; costs CPU time).
  bool verify_pages = false;
  // Keep images in memory / page cache (the in-memory CRIU optimization of
  // Venkatesh et al. [26], discussed as future work in Section 7): image
  // reads are charged at page-cache bandwidth even on first restore.
  bool in_memory = false;
  // N concurrent restores sharing the storage device (processor-sharing
  // approximation); used by the concurrency ablation.
  double io_contention = 1.0;
  os::Cap criu_caps = os::Cap::kSysPtrace | os::Cap::kSysAdmin;
  // Where the top link's image files live in the simulated filesystem ("" =
  // images were never persisted; no storage read is charged, only decode +
  // mapping). Lower links carry their own prefixes (ImageLink::fs_prefix).
  std::string fs_prefix;
  // The images live on a remote snapshot registry ("checkpoint/restore as
  // a service", Section 7): a node's first read of each file is charged at
  // network bandwidth, after which it is cached locally.
  bool remote_fetch = false;
  // How the memory replay pages the process in (DESIGN.md §6j): eager
  // (default), lazy (CRIU's userfaultfd post-copy mode — an eager prefix per
  // pagemap run, the rest served on demand by the returned LazyPagesServer),
  // or REAP-style working-set record/prefetch.
  PagingPolicy paging;
  // Remote-fetch resilience: a registry transfer that disconnects mid-flight
  // is retried up to this many attempts, sleeping backoff * attempt *
  // (1 + jitter) between tries, then fails with RestoreError{kFetchFailed}.
  // With no faults injected the fetch succeeds on the first attempt and
  // these knobs charge nothing.
  int fetch_max_attempts = 3;
  sim::Duration fetch_retry_backoff = sim::Duration::millis(10);
  // Node-local content-addressed page store (DESIGN.md §6f). When set,
  // remote fetches of the page payload negotiate per-page digests and
  // transfer only what the store is missing, and restores materialize (or
  // clone) a frozen per-snapshot template keyed by `store_key`. Delta
  // negotiation also serves working-set prefetch restores (over the WS
  // pages only); template clone requires eager paging — see validate().
  // Null = the legacy behavior everywhere.
  PageStore* page_store = nullptr;
  // The snapshot's identity in the node store (e.g. its node-local image
  // prefix). Empty disables template materialization/cloning even with a
  // store attached; delta transfer still applies. Requires eager paging: a
  // non-eager restore leaves a lazy tail a frozen template would miss, so
  // validate() rejects the combination (RestoreError{kConfig}) instead of
  // the silent downgrade the pre-PagingPolicy code performed.
  std::string store_key;

  // Reject contradictory option combinations up front with a typed,
  // non-transient error (retrying a caller bug fails identically forever).
  // Called by Restorer::restore on every restore.
  void validate() const {
    if (paging.mode != PagingMode::kEager && page_store != nullptr &&
        !store_key.empty())
      throw RestoreError{
          RestoreErrorKind::kConfig,
          std::string{"restore: template clone (store_key) requires eager "
                      "paging, got "} +
              paging_mode_name(paging.mode)};
  }
};

// One image directory under the top link of a restore: a pre-dump parent
// (DESIGN.md §6i) or a base layer (§6k). `images` is required; fs_prefix
// names where *this link's* files live in the simulated fs ("" =
// unpersisted, decode only); store_key is the link's template identity in
// the node page store ("" = no template for this link).
struct ImageLink {
  const ImageDir* images = nullptr;
  std::string fs_prefix;
  std::string store_key;
};

// A run of not-yet-mapped pages handed to the uffd server. Run-length
// encoded: a lazy restore of a large VMA queues one entry per pagemap run,
// not one pair per page.
struct LazyRun {
  os::VmaId vma = 0;
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
};

// The uffd page server left behind by a lazy restore: it owns the pages that
// were *not* eagerly mapped and faults them into the target on demand.
class LazyPagesServer {
 public:
  LazyPagesServer() = default;
  LazyPagesServer(os::Kernel& kernel, os::Pid pid, std::string fs_prefix,
                  std::vector<LazyRun> pending);

  // Fault `pages` pending pages into the target (first-touch order);
  // charges page-fault plus image-read costs. Returns pages actually served.
  // Under an enabled fault injector the server may die once (kLazyServerDeath:
  // the supervisor respawns it and the faulting thread eats the latency) and
  // transient image-read errors are retried a bounded number of times before
  // surfacing as RestoreError{kIoError}.
  std::uint64_t page_in(std::uint64_t pages);
  // Drain everything (e.g. before a full-memory operation).
  std::uint64_t page_in_all() { return page_in(pending_pages()); }

  std::uint64_t pending_pages() const { return remaining_; }
  bool done() const { return pending_pages() == 0; }
  // Times the uffd server died and was respawned (at most 1 per server).
  std::uint32_t deaths() const { return deaths_; }

 private:
  os::Kernel* kernel_ = nullptr;
  os::Pid pid_ = os::kNoPid;
  std::string fs_prefix_;
  std::vector<LazyRun> pending_;
  std::size_t run_ = 0;        // current run index
  std::uint64_t run_off_ = 0;  // pages already served from pending_[run_]
  std::uint64_t remaining_ = 0;
  bool died_ = false;
  std::uint32_t deaths_ = 0;
};

struct RestoreResult {
  os::Pid pid = os::kNoPid;
  std::uint64_t pages_restored = 0;
  std::uint64_t bytes_read = 0;
  // Bytes pulled from the remote snapshot registry (remote_fetch restores
  // whose image files were not yet in the node-local cache). 0 on local
  // restores and on cache hits — the node-locality signal the cluster
  // layer's placement policies optimize for.
  std::uint64_t remote_bytes = 0;
  sim::Duration duration;
  // Present iff the restore ran under a non-eager paging mode (lazy, or the
  // working-set modes, which lazy-serve their cold tail).
  std::shared_ptr<LazyPagesServer> lazy_server;
  // Working-set restore (DESIGN.md §6j). The recorder is present iff the
  // restore ran in ws-recording mode; the platform closes it with
  // finish_ws_recording after the first invocation completes.
  std::shared_ptr<WsRecorder> ws_recorder;
  // Pages eagerly mapped from the recorded working set (prefetch mode).
  std::uint64_t ws_prefetched_pages = 0;
  // A requested WS prefetch downgraded to pure-lazy because ws-1.img was
  // missing, truncated, or corrupt; kind/detail carry the typed warning.
  bool ws_fallback = false;
  RestoreErrorKind ws_fallback_kind = RestoreErrorKind::kMissingImage;
  std::string ws_fallback_detail;
  // Page-store accounting (zero / false without opts.page_store). Hit pages
  // are payload pages the delta negotiation found already materialized on
  // the node; delta bytes are the payload that actually crossed the wire.
  std::uint64_t store_hit_pages = 0;
  std::uint64_t store_delta_bytes = 0;
  // This restore was served by COW-cloning the node's frozen template.
  bool template_clone = false;
  // This restore left a frozen template behind (first restore on the node).
  bool template_materialized = false;
  // Layered restore accounting (DESIGN.md §6k; zero/false unless the top
  // link carries a layers-1.img manifest). base_template_clone: the replica
  // was built by COW-cloning the pinned *base-runtime* template and replaying
  // only the app delta. base_template_materialized: this restore was the
  // node's first over that base and left the pinned base template behind.
  bool base_template_clone = false;
  bool base_template_materialized = false;
  // Pages replayed from the app delta layer (subset of pages_restored).
  std::uint64_t delta_pages_restored = 0;
  // Pages the manifest records as covered by the base layer(s).
  std::uint64_t layer_shared_pages = 0;
};

class Restorer {
 public:
  explicit Restorer(os::Kernel& kernel) : kernel_{&kernel} {}

  // Restore the process whose newest images are `images` (read from
  // opts.fs_prefix, template identity opts.store_key). `lower` lists the
  // links under it, base-first: the pre-dump parents of an incremental dump
  // (memory comes from the whole chain, metadata from `images`), or the base
  // layer(s) of a split delta. A top link carrying layers-1.img must be
  // paired with exactly the base layers its manifest names; lower links of
  // any other process need that manifest. Failures are typed RestoreErrors
  // attributed to the offending link's depth (0 = `images`).
  //
  // With a page store and a store key the first restore freezes a template
  // and later ones COW-clone it; a keyed single base layer is likewise
  // restored once into a pinned template, so functions over it replay only
  // their delta.
  RestoreResult restore(const ImageDir& images, const RestoreOptions& opts = {},
                        std::span<const ImageLink> lower = {});

 private:
  os::Kernel* kernel_;
};

}  // namespace prebake::criu
