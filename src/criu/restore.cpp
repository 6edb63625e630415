#include "criu/restore.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "criu/page_store.hpp"

namespace prebake::criu {

namespace {

// The payload and working-set image names as views: a file name compares
// against them by length first, no strlen or byte scan for most names.
constexpr std::string_view kPagesFile = "pages-1.img";
constexpr std::string_view kWsFile = kWsImageName;

// Pull one image file from the remote registry. A transfer may disconnect
// mid-flight (kRegistryDisconnect): the failed attempt still costs a round
// trip, then the fetcher backs off (linear * jitter) and retries, up to
// opts.fetch_max_attempts. A stalled registry (kRegistryStall) adds the
// plan's stall latency to a successful transfer. With no faults injected
// this reduces to the original single fetch.
void fetch_from_registry(os::Kernel& k, const std::string& path,
                         std::uint64_t bytes, const RestoreOptions& opts,
                         RestoreResult& result) {
  faults::Injector& inj = k.faults();
  obs::Span span = k.trace().span("registry-fetch", "criu.net");
  span.attr("path", path);
  span.attr("bytes", bytes);
  const int max_attempts = std::max(opts.fetch_max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    if (inj.enabled() && inj.fires(faults::FaultSite::kRegistryDisconnect)) {
      k.trace().count("criu.fetch_retries");
      k.sim().advance(k.costs().network_rtt);
      if (attempt >= max_attempts) {
        span.attr("attempts", attempt);
        span.attr("error", "disconnect");
        throw RestoreError{RestoreErrorKind::kFetchFailed,
                           "restore: registry fetch failed after " +
                               std::to_string(attempt) + " attempts: " + path};
      }
      k.sim().advance(opts.fetch_retry_backoff *
                      (static_cast<double>(attempt) * (1.0 + inj.jitter())));
      continue;
    }
    if (inj.enabled() && inj.fires(faults::FaultSite::kRegistryStall))
      k.sim().advance(inj.plan().registry_stall);
    k.sim().advance(k.costs().network_fetch_cost(bytes) *
                    std::max(opts.io_contention, 1.0));
    k.fs().warm(path);
    result.remote_bytes += bytes;
    k.trace().count("criu.remote_bytes", bytes);
    span.attr("attempts", attempt);
    return;
  }
}

// Delta-aware payload negotiation (DESIGN.md §6f): instead of shipping the
// whole page payload, the registry first sends the image's per-page digest
// list (one extra round trip plus 8 bytes per page) and the node answers
// with the digests its content-addressed store is missing; only those pages
// then cross the wire. Duplicate pages within the image transfer once.
// Returns the payload bytes that still have to be fetched.
std::uint64_t negotiate_delta(os::Kernel& k,
                              std::span<const std::uint64_t> digests,
                              const RestoreOptions& opts,
                              RestoreResult& result) {
  PageStore& store = *opts.page_store;
  obs::Span span = k.trace().span("delta-negotiate", "criu.net");
  const std::uint64_t total = digests.size();
  const std::uint64_t digest_bytes = total * sizeof(std::uint64_t);
  k.sim().advance(k.costs().network_rtt);
  k.sim().advance(k.costs().network_fetch_cost(digest_bytes) *
                  std::max(opts.io_contention, 1.0));
  result.remote_bytes += digest_bytes;
  k.trace().count("criu.remote_bytes", digest_bytes);
  const std::uint64_t missing = store.missing_unique_pages(digests);
  const std::uint64_t hit = total - missing;
  const std::uint64_t delta = missing * os::kPageSize;
  result.store_hit_pages += hit;
  result.store_delta_bytes += delta;
  PageStoreStats& st = store.stats_mut();
  st.hit_pages += hit;
  st.miss_pages += missing;
  st.delta_bytes += delta;
  st.digest_bytes += digest_bytes;
  k.trace().count("store.hit_pages", hit);
  k.trace().count("store.delta_bytes", delta);
  span.attr("pages", total);
  span.attr("missing", missing);
  return delta;
}

// How much of one link's page payload the up-front read pass covers, and
// which digests a delta negotiation runs over. Eager restores read
// everything (neither share nor bytes set); lazy restores a share of the
// nominal size; working-set prefetch reads exactly the link's WS pages and
// negotiates only their digests, so first-restore-on-node ships the WS delta
// and nothing else up front.
struct Pages1Plan {
  std::optional<double> share;         // of the nominal size, in [0, 1]
  std::optional<std::uint64_t> bytes;  // exact, capped at the nominal size
  // Delta-negotiation scope when a page store is attached; empty = the
  // image's full digest list.
  std::span<const std::uint64_t> digests;
  // Lazy paging keeps its legacy behavior of bypassing the store entirely
  // (the uffd server owns the page lifecycle there).
  bool allow_delta = true;
};

// Charge the storage cost of reading every image file of one snapshot. The
// page payload is covered per `plan` (see Pages1Plan); whatever is not read
// up front is read on demand by the LazyPagesServer. The working-set image
// is skipped here unconditionally — it is advisory, read explicitly by the
// prefetch prep path with fallback-not-fail semantics. Accumulates
// read/remote byte counts into `result`. Throws typed RestoreErrors for
// truncated on-disk copies, transient device errors and injected record
// corruption. The files are read from `fs_prefix` ("" = unpersisted).
// `chain_depth` names the chain link being read (0 = top link, growing
// toward the oldest parent or base; -1 = not part of a chain) so truncation
// in a *lower* link is attributable at the error level.
void charge_image_reads(os::Kernel& k, const ImageDir& images,
                        const std::string& fs_prefix,
                        const RestoreOptions& opts, const Pages1Plan& plan,
                        RestoreResult& result, int chain_depth) {
  faults::Injector& inj = k.faults();
  obs::Tracer& tr = k.trace();
  // The previous file's handle: the directory's files are read in name
  // order, so each lookup starts right after it.
  os::FileSystem::Handle prev;
  for (const auto& [name, f] : images.files()) {
    if (name == kWsFile) continue;
    std::uint64_t to_read = f.nominal_size;
    if (name == kPagesFile) {
      if (plan.share)
        to_read = static_cast<std::uint64_t>(
            static_cast<double>(f.nominal_size) * *plan.share);
      if (plan.bytes) to_read = *plan.bytes;
      to_read = std::min(to_read, f.nominal_size);
    }
    result.bytes_read += to_read;
    if (to_read == 0) continue;
    // Per-image read span ("read:pages-1.img" ...). The name is built only
    // when tracing is on so the disabled path stays allocation-free.
    obs::Span read_span;
    if (tr.enabled()) {
      read_span = tr.span("read:" + name, "criu.io");
      read_span.attr("bytes", to_read);
      tr.count("criu.bytes_read", to_read);
    }
    if (!fs_prefix.empty()) {
      // One lookup per file, no joined path built: the hot path of every
      // steady-state restore. A missing file throws std::invalid_argument.
      const os::FileSystem::Handle file = k.fs().require(fs_prefix, name, prev);
      prev = file;
      const std::string& path = file.path();
      // A persisted copy shorter than the record's nominal size is the scar
      // of a truncated write: unrecoverable from this replica, heals via
      // quarantine + re-bake.
      if (file.size() < f.nominal_size) {
        std::string what = "restore: truncated image file " + path + " (" +
                           std::to_string(file.size()) + " < " +
                           std::to_string(f.nominal_size) + " bytes)";
        if (chain_depth > 0)
          what += " in chain link " + std::to_string(chain_depth);
        throw RestoreError{RestoreErrorKind::kTruncatedImage, what,
                           chain_depth};
      }
      if (opts.remote_fetch && !file.cached()) {
        if (opts.page_store != nullptr && plan.allow_delta &&
            name == kPagesFile && images.decoded().pages) {
          // Borrowed digest span straight out of the decode cache — the
          // negotiation never copies the digest list. A WS-prefetch plan
          // narrows it to the link's working-set pages.
          const std::span<const std::uint64_t> digests =
              plan.digests.empty() ? images.decoded().pages->digests()
                                   : plan.digests;
          const std::uint64_t delta = negotiate_delta(k, digests, opts, result);
          if (delta > 0)
            fetch_from_registry(k, path, delta, opts, result);
          else
            k.fs().warm(file);  // every page already on the node
          opts.page_store->insert(digests);
        } else {
          fetch_from_registry(k, path, to_read, opts, result);
        }
      }
      if (opts.in_memory) k.fs().warm(file);
      try {
        k.fs().charge_read(file, to_read, opts.io_contention);
      } catch (const os::IoError& e) {
        throw RestoreError{RestoreErrorKind::kIoError, e.what()};
      }
    } else {
      // Unpersisted images: behave as if already page-cache resident.
      k.sim().advance(k.costs().page_cache_read_cost(to_read) *
                      std::max(opts.io_contention, 1.0));
    }
    // A bit-flip in the record that the per-record CRC catches after the
    // read. The in-memory ImageDir bytes stay pristine — this models
    // corruption of the transferred/cached copy, so a retry can succeed.
    if (inj.enabled() && inj.fires(faults::FaultSite::kImageCorruption)) {
      read_span.attr("error", "crc-mismatch");
      throw RestoreError{RestoreErrorKind::kCorruptImage,
                         "restore: CRC mismatch reading " + name +
                             " (injected bit-flip)"};
    }
  }
}

// COW-clone a frozen template process into a fresh replica: the clone shares
// every resident page with the template (first writes are charged a page
// copy by the kernel) and takes over the checkpointed identity.
os::Pid spawn_template_clone(os::Kernel& k, os::Pid tpl,
                             const InventoryEntry& inv,
                             const RestoreOptions& opts) {
  os::CloneOptions copts;
  copts.caller_caps = opts.criu_caps;
  copts.cow_tracked = true;
  const os::Pid pid = k.clone_process(tpl, copts);
  os::Process& proc = k.process(pid);
  const os::Process& t = k.process(tpl);
  proc.set_name(inv.name);
  proc.set_argv(inv.argv);
  proc.grant(static_cast<os::Cap>(inv.caps));
  proc.threads()[0].tid = t.threads()[0].tid;
  for (std::size_t i = 1; i < t.threads().size(); ++i)
    proc.spawn_thread(t.threads()[i].tid);
  for (std::size_t i = 0; i < t.threads().size(); ++i) {
    proc.threads()[i].regs = t.threads()[i].regs;
    proc.threads()[i].state = os::ThreadState::kRunning;
  }
  return pid;
}

// The links of one restore, base-first: the caller's `lower` links, then the
// top link named by (images, opts.fs_prefix, opts.store_key). A view, so a
// restore never copies its links' prefixes.
struct Chain {
  std::span<const ImageLink> lower;
  const ImageDir* top;
  const std::string* top_prefix;

  std::size_t size() const { return lower.size() + 1; }
  const ImageDir& images(std::size_t i) const {
    return i < lower.size() ? *lower[i].images : *top;
  }
  const std::string& fs_prefix(std::size_t i) const {
    return i < lower.size() ? lower[i].fs_prefix : *top_prefix;
  }
  // Depth counts from the newest link: the top is link 0, the link under it
  // link 1, and so on toward the oldest pre-dump or the base layer.
  int depth(std::size_t i) const { return static_cast<int>(size() - 1 - i); }
};

const InventoryEntry& inventory_of(const ImageDir::Decoded& dec) {
  if (!dec.inventory)
    throw RestoreError{RestoreErrorKind::kMissingImage,
                       "restore: missing image file inventory.img"};
  return *dec.inventory;
}

// Every link of the chain is read, so every link's records get their CRCs
// re-checked on the way in — a corrupt parent pre-dump or base layer fails
// the restore just like a corrupt top link. Host-side check (cached per
// ImageDir): no simulated time.
void validate_links(const Chain& chain) {
  for (std::size_t i = 0; i < chain.size(); ++i) {
    try {
      chain.images(i).validate();
    } catch (const std::runtime_error& e) {
      throw RestoreError{RestoreErrorKind::kCorruptImage,
                         std::string{e.what()} + " (chain link " +
                             std::to_string(chain.depth(i)) + ")",
                         chain.depth(i)};
    }
  }
}

// How the lower links relate to the top one. A top link carrying a
// layers-1.img manifest is a split delta: it names the exact base content it
// was diffed against, so `lower` must be those base layers — restoring over
// any other base, or over none, would silently mix or drop layers. Without a
// manifest every lower link must be a pre-dump of the same process. Returns
// the manifest, if any; it lives in the top link's decode cache, as do the
// base digests it is checked against, so a steady-state check neither
// decodes nor hashes.
const LayerManifest* check_pairing(const Chain& chain) {
  const ImageDir::Decoded& top = chain.top->decoded();
  const std::size_t n = chain.size();
  if (!top.layers && !top.layers_error) {
    if (n == 1) return nullptr;
    const std::optional<InventoryEntry>& inv = top.inventory;
    if (!inv) return nullptr;  // reported once the replay needs it
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const std::optional<InventoryEntry>& link =
          chain.images(i).decoded().inventory;
      if (!link || link->root_pid != inv->root_pid)
        throw RestoreError{RestoreErrorKind::kMissingImage,
                           std::string{"restore: missing image file "} +
                               kLayersImageName + " (chain link " +
                               std::to_string(chain.depth(i)) +
                               " is not a pre-dump of this process)",
                           0};
    }
    return nullptr;
  }
  if (top.layers_error)
    throw RestoreError{top.layers_error->kind(), top.layers_error->what(), 0};
  const LayerManifest& manifest = *top.layers;
  if (manifest.layers.size() != n)
    throw RestoreError{RestoreErrorKind::kConfig,
                       "restore: manifest names " +
                           std::to_string(manifest.layers.size()) +
                           " layers, caller passed " + std::to_string(n),
                       0};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (layer_digest(chain.images(i)) != manifest.layers[i].content_digest)
      throw RestoreError{RestoreErrorKind::kCorruptImage,
                         "restore: base layer '" + manifest.layers[i].id +
                             "' is not the layer this delta was diffed "
                             "against (content digest mismatch, chain link " +
                             std::to_string(chain.depth(i)) + ")",
                         chain.depth(i)};
  }
  return &manifest;
}

// Fast path (DESIGN.md §6f): the node store already holds a frozen template
// for opts.store_key — COW-clone it, skipping image reads entirely.
RestoreResult clone_from_template(os::Kernel& k, const Chain& chain,
                                  const RestoreOptions& opts) {
  obs::Tracer& tr = k.trace();
  const sim::TimePoint t0 = k.sim().now();
  PageStore& store = *opts.page_store;
  const PageStore::TemplateInfo& tpl = *store.find_template(opts.store_key);

  obs::Span span = tr.span("template-clone", "criu");
  span.attr("key", opts.store_key);

  const InventoryEntry& inv = inventory_of(chain.top->decoded());
  RestoreResult result;
  result.pid = spawn_template_clone(k, tpl.pid, inv, opts);
  result.template_clone = true;
  os::Process& proc = k.process(result.pid);
  result.pages_restored = proc.mm().resident_pages();

  if (opts.verify_pages) {
    // Integrity check on the clone: recompute each payload run's digests and
    // compare against the image chain, exactly as the slow path would. COW
    // sharing is read-transparent, so a clone that already broke some pages
    // still verifies as long as nothing rewrote the checkpointed contents.
    // One bulk compare + one aggregated cost advance per run (§6g).
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const ImageDir::Decoded& ddec = chain.images(i).decoded();
      if (!ddec.pages) continue;
      const std::span<const std::uint64_t> digests = ddec.pages->digests();
      std::uint64_t cursor = 0;
      for (const PagemapEntry& e : ddec.pagemap) {
        if (e.zero) continue;
        const auto it = tpl.vma_map.find(e.vma);
        if (it == tpl.vma_map.end())
          throw RestoreError{RestoreErrorKind::kCorruptImage,
                             "restore: pagemap references unknown vma"};
        const std::uint64_t avail =
            cursor < digests.size() ? digests.size() - cursor : 0;
        const std::uint64_t matched = k.verify_run(
            result.pid, it->second, e.first_page,
            digests.subspan(cursor, std::min(e.pages, avail)));
        if (matched < e.pages) {
          span.attr("error", "digest-mismatch");
          throw RestoreError{RestoreErrorKind::kCorruptImage,
                             "restore: page digest mismatch"};
        }
        cursor += e.pages;
      }
    }
    span.attr("verified", "true");
  }

  ++store.stats_mut().template_clones;
  tr.count("template.clone");
  result.duration = k.sim().now() - t0;
  span.attr("pages", result.pages_restored);
  tr.measure("criu.template_clone_ms", result.duration.to_millis());
  return result;
}

}  // namespace

RestoreResult Restorer::restore(const ImageDir& images,
                                const RestoreOptions& opts,
                                std::span<const ImageLink> lower) {
  opts.validate();
  for (const ImageLink& l : lower)
    if (l.images == nullptr)
      throw std::invalid_argument{"restore: null image link"};
  const Chain chain{lower, &images, &opts.fs_prefix};
  const std::size_t n = chain.size();
  os::Kernel& k = *kernel_;
  obs::Tracer& tr = k.trace();
  const sim::TimePoint t0 = k.sim().now();
  PageStore* const store = opts.page_store;
  const PagingPolicy paging = opts.paging;
  const bool lazy = paging.mode == PagingMode::kLazy;
  const bool ws_record =
      paging.mode == PagingMode::kWorkingSet && paging.ws_record;
  const bool ws_prefetch =
      paging.mode == PagingMode::kWorkingSet && !paging.ws_record;

  obs::Span restore_span = tr.span("criu.restore", "criu");
  restore_span.attr("chain", static_cast<std::uint64_t>(n));

  // 1-2. Validate every link, then check how the lower links pair with the
  // top one.
  const LayerManifest* manifest = nullptr;
  {
    obs::Span s = tr.span("validate", "criu");
    validate_links(chain);
    manifest = check_pairing(chain);
  }

  // 3. The snapshot's own frozen template is already on the node.
  // (validate() already guaranteed store_key implies eager paging.)
  if (store != nullptr && !opts.store_key.empty() &&
      store->has_template(opts.store_key)) {
    RestoreResult r = clone_from_template(k, chain, opts);
    if (manifest) r.layer_shared_pages = manifest->shared_pages;
    return r;
  }

  RestoreResult result;
  if (manifest) result.layer_shared_pages = manifest->shared_pages;

  // If anything below throws, tear the half-restored shell down so a failed
  // restore doesn't leak a process into the kernel table; the retry/fallback
  // paths start from a clean slate. (A pinned base template stays.)
  struct Cleanup {
    os::Kernel* k;
    os::Pid pid = os::kNoPid;
    ~Cleanup() {
      if (pid == os::kNoPid) return;
      k->kill_process(pid);
      k->reap(pid);
    }
  } cleanup{&k};

  // 4. The starting shell. A split delta over one keyed base layer starts
  // from a COW clone of the node's pinned base template — materialized by
  // restoring the base alone on first use — so only the delta is read and
  // replayed below. Everything else starts from a fresh clone (step 6),
  // after the image reads, and replays every link.
  os::Pid pid = os::kNoPid;
  // Image vma id -> the shell's vma id, for regions the shell already holds.
  const std::map<os::VmaId, os::VmaId> no_vmas;
  const std::map<os::VmaId, os::VmaId>* shell_vmas = &no_vmas;
  std::size_t first = 0;  // oldest link the replay covers
  if (manifest && store != nullptr && paging.mode == PagingMode::kEager &&
      n == 2 && !lower[0].store_key.empty()) {
    const ImageLink& base = lower[0];
    const InventoryEntry& inv = inventory_of(images.decoded());
    restore_span.attr("base", base.store_key);
    if (!store->has_template(base.store_key)) {
      // Failures in the base restore concern the base layer, so attribute
      // them to its chain depth.
      RestoreOptions base_opts = opts;
      base_opts.fs_prefix = base.fs_prefix;
      base_opts.store_key = base.store_key;
      try {
        const RestoreResult r = restore(*base.images, base_opts);
        pid = r.pid;
        result.pages_restored += r.pages_restored;
        result.bytes_read += r.bytes_read;
        result.remote_bytes += r.remote_bytes;
        result.store_hit_pages += r.store_hit_pages;
        result.store_delta_bytes += r.store_delta_bytes;
        result.base_template_materialized = r.template_materialized;
      } catch (const RestoreError& e) {
        if (e.chain_link() >= 0) throw;
        throw RestoreError{e.kind(),
                           std::string{e.what()} + " (chain link " +
                               std::to_string(chain.depth(0)) + ")",
                           chain.depth(0)};
      }
      if (result.base_template_materialized) {
        ++store->stats_mut().base_templates_materialized;
        tr.count("template.base_materialize");
      }
    } else {
      pid = spawn_template_clone(k, store->find_template(base.store_key)->pid,
                                 inv, opts);
      result.pages_restored += k.process(pid).mm().resident_pages();
      result.base_template_clone = true;
      ++store->stats_mut().base_template_clones;
      tr.count("template.base_clone");
    }
    cleanup.pid = pid;
    const PageStore::TemplateInfo* btpl = store->find_template(base.store_key);
    if (btpl == nullptr)
      throw RestoreError{RestoreErrorKind::kUnsupported,
                         "restore: base template vanished mid-restore: " +
                             base.store_key};
    shell_vmas = &btpl->vma_map;
    first = 1;
  }

  // 5a. Working-set prefetch prep (DESIGN.md §6j): read and decode ws-1.img,
  // then expand it into per-vma bitmaps. Any failure here — missing file,
  // truncated or corrupt image, a bad read of the persisted copy —
  // downgrades the restore to pure-lazy with a typed warning in the result:
  // the WS image is advisory and must never fail a restore that would
  // otherwise complete.
  std::map<os::VmaId, os::PageBitmap> ws_pages;  // image vma id -> WS bitmap
  bool have_ws = false;
  if (ws_prefetch) {
    obs::Span s = tr.span("ws-prep", "criu");
    if (!images.has(kWsImageName)) {
      result.ws_fallback = true;
      result.ws_fallback_kind = RestoreErrorKind::kMissingImage;
      result.ws_fallback_detail =
          std::string{kWsImageName} + ": not present in snapshot";
    } else {
      try {
        // Read the WS image like any other metadata file (fetched from the
        // registry on remote first-restore, charged at storage bandwidth).
        const std::uint64_t ws_bytes = images.get(kWsImageName).bytes.size();
        result.bytes_read += ws_bytes;
        if (!opts.fs_prefix.empty()) {
          const std::string path = opts.fs_prefix + kWsImageName;
          if (opts.remote_fetch && !k.fs().is_cached(path))
            fetch_from_registry(k, path, ws_bytes, opts, result);
          if (opts.in_memory) k.fs().warm(path);
          if (k.fs().exists(path)) {
            try {
              k.fs().charge_read(path, ws_bytes, opts.io_contention);
            } catch (const os::IoError& e) {
              throw RestoreError{RestoreErrorKind::kIoError, e.what()};
            }
          } else {
            k.sim().advance(k.costs().page_cache_read_cost(ws_bytes) *
                            std::max(opts.io_contention, 1.0));
          }
        } else {
          k.sim().advance(k.costs().page_cache_read_cost(ws_bytes) *
                          std::max(opts.io_contention, 1.0));
        }
        const WsLoad load = load_working_set(images);
        if (!load.ws)
          throw RestoreError{load.fallback_kind, load.detail};
        ws_pages = ws_bitmaps(*load.ws, images.decoded().vmas);
        have_ws = true;
      } catch (const RestoreError& e) {
        result.ws_fallback = true;
        result.ws_fallback_kind = e.kind();
        result.ws_fallback_detail = e.what();
        ws_pages.clear();
      }
    }
    if (result.ws_fallback) {
      s.attr("fallback", restore_error_name(result.ws_fallback_kind));
      tr.count("criu.ws_fallback");
    }
  }

  // The plan for the page payload: how many bytes the up-front read pass
  // covers and which digests a page-store delta negotiation runs over. One
  // plan serves every link, except under WS prefetch, which plans each link
  // over its own working-set pages.
  Pages1Plan plan;
  if (lazy) {
    plan.share = std::clamp(paging.lazy_fraction, 0.0, 1.0);
    plan.allow_delta = false;
  } else if (ws_record || (ws_prefetch && !have_ws)) {
    // Record mode (and the damaged-WS fallback) restores pure-lazy: every
    // payload page is first read when it is first touched.
    plan.bytes = 0;
    plan.allow_delta = false;
  }
  std::vector<Pages1Plan> ws_plans;  // one per link; empty unless WS prefetch
  // Owned digest storage backing ws_plans[i].digests (the working set's
  // digests, gathered per link in pagemap order).
  std::vector<std::vector<std::uint64_t>> ws_digests;
  if (ws_prefetch && have_ws) {
    ws_plans.resize(n);
    ws_digests.resize(n);
  }
  for (std::size_t i = first; i < ws_plans.size(); ++i) {
    const ImageDir::Decoded& ddec = chain.images(i).decoded();
    std::uint64_t ws_count = 0;
    const bool want_digests = store != nullptr && ddec.pages.has_value();
    const std::span<const std::uint64_t> digests =
        want_digests ? ddec.pages->digests()
                     : std::span<const std::uint64_t>{};
    std::uint64_t cursor = 0;
    for (const PagemapEntry& e : ddec.pagemap) {
      if (e.zero) continue;
      const auto bit = ws_pages.find(e.vma);
      if (bit != ws_pages.end()) {
        ws_count += bit->second.count_range(e.first_page, e.pages);
        if (want_digests)
          bit->second.for_each_set_run(
              e.first_page, e.pages,
              [&](std::uint64_t first_page, std::uint64_t pages) {
                const std::uint64_t base =
                    cursor + (first_page - e.first_page);
                for (std::uint64_t j = 0;
                     j < pages && base + j < digests.size(); ++j)
                  ws_digests[i].push_back(digests[base + j]);
              });
      }
      cursor += e.pages;
    }
    ws_plans[i].bytes = ws_count * os::kPageSize;
    ws_plans[i].digests = ws_digests[i];
  }

  // 5b. Read the replayed links' images (and charge their I/O), each from
  // its own prefix.
  {
    obs::Span s = tr.span("image-reads", "criu.io");
    for (std::size_t i = first; i < n; ++i)
      charge_image_reads(k, chain.images(i), chain.fs_prefix(i), opts,
                         ws_plans.empty() ? plan : ws_plans[i], result,
                         n > 1 ? chain.depth(i) : -1);
  }

  // Metadata comes from the top link. The decode cache is shared across
  // restores of the same snapshot, and answers the presence checks too.
  const ImageDir::Decoded& dec = images.decoded();
  const InventoryEntry& inv = inventory_of(dec);
  if (!dec.has_core)
    throw RestoreError{RestoreErrorKind::kMissingImage,
                       "restore: missing image file core-" +
                           std::to_string(inv.root_pid) + ".img"};
  const auto& cores = dec.cores;
  if (!dec.has_mm)
    throw RestoreError{RestoreErrorKind::kMissingImage,
                       "restore: missing image file mm.img"};
  const auto& vmas = dec.vmas;
  if (!dec.has_files)
    throw RestoreError{RestoreErrorKind::kMissingImage,
                       "restore: missing image file files.img"};
  const auto& files = dec.files;
  if (cores.size() != inv.n_threads)
    throw RestoreError{RestoreErrorKind::kUnsupported,
                       "restore: core/inventory thread count mismatch"};

  // 6. Transmute: clone a fresh process shell (optionally with the original
  // pid, which requires CAP_CHECKPOINT_RESTORE [11]) unless step 4 supplied
  // one, then give it the checkpointed identity.
  obs::Span transmute_span = tr.span("transmute", "criu");
  if (pid == os::kNoPid) {
    os::CloneOptions clone_opts;
    clone_opts.caller_caps = opts.criu_caps;
    if (opts.restore_original_pid) {
      if (!os::has_cap(opts.criu_caps, os::Cap::kCheckpointRestore) &&
          !os::has_cap(opts.criu_caps, os::Cap::kSysAdmin))
        throw RestoreError{
            RestoreErrorKind::kPermission,
            "restore: original pid requires CAP_CHECKPOINT_RESTORE"};
      clone_opts.set_child_pid = true;
      clone_opts.child_pid = inv.root_pid;
    }
    pid = k.clone_process(os::kNoPid, clone_opts);
    cleanup.pid = pid;
  }
  os::Process& proc = k.process(pid);
  proc.set_name(inv.name);
  proc.set_argv(inv.argv);
  proc.ns() = inv.ns;
  proc.grant(static_cast<os::Cap>(inv.caps));

  // Threads: re-key the shell's threads to the recorded tids (tids are
  // process-local in the model), recreate the remaining ones, and load
  // every register file.
  const std::size_t shell_threads = proc.threads().size();
  if (shell_threads > cores.size())
    throw RestoreError{RestoreErrorKind::kUnsupported,
                       "restore: process shell carries more threads than the "
                       "image records"};
  for (std::size_t i = 0; i < shell_threads; ++i)
    proc.threads()[i].tid = cores[i].tid;
  for (std::size_t i = shell_threads; i < cores.size(); ++i)
    proc.spawn_thread(cores[i].tid);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    proc.threads()[i].regs = cores[i].regs;
    proc.threads()[i].state = os::ThreadState::kRunning;
  }
  transmute_span.attr("threads", static_cast<std::uint64_t>(cores.size()));
  transmute_span.end();

  // 7. Rebuild the address space from the top link's mm.img. Regions the
  // shell already holds keep their vma ids (COW clones preserve them); the
  // rest are mapped fresh. Buffer-backed VMAs need the full page payload;
  // pattern VMAs regenerate from the recorded descriptor.
  if (!dec.pages)
    throw RestoreError{RestoreErrorKind::kMissingImage,
                       "restore: missing image file pages-1.img"};
  const PayloadMode top_mode = dec.pages->mode();
  obs::Span vma_span = tr.span("vma-rebuild", "criu");
  if (first == 0) proc.replace_mm(os::AddressSpace{});  // a fresh shell
  proc.mm().reserve(proc.mm().vmas().size() + vmas.size());
  // Per image vma (dec.vmas order): the replica's vma, and whether the
  // replay copies payload bytes into it — only a buffer region mapped fresh
  // here takes them; one the shell shares with the base template must not.
  struct VmaSlot {
    os::VmaId id = 0;
    bool fresh_buffer = false;
  };
  std::vector<VmaSlot> slots(vmas.size());
  for (std::size_t v = 0; v < vmas.size(); ++v) {
    const VmaEntry& e = vmas[v];
    const auto shared = shell_vmas->find(e.id);
    if (shared != shell_vmas->end()) {
      // A shared id whose geometry disagrees means the delta was paired with
      // a base of a different layout — fail typed, don't guess.
      os::Vma* vma = proc.mm().find_mutable(shared->second);
      if (vma == nullptr || vma->length != e.length)
        throw RestoreError{RestoreErrorKind::kUnsupported,
                           "restore: base/delta vma geometry mismatch for " +
                               e.name};
      // The clone inherited the *base process's* page generator. Regions
      // whose generator is per-process (the pid-seeded stack) must be
      // re-keyed to the delta's recorded source: base-covered pages produce
      // identical bytes either way (that is exactly what the split dump
      // verified positionally), and the runs the pagemap replays below then
      // yield the function's own content instead of the base's.
      if (e.source_kind == SourceKind::kPattern) {
        const auto* pat =
            dynamic_cast<const os::PatternSource*>(vma->source.get());
        if (pat == nullptr || pat->seed() != e.pattern_seed ||
            pat->version() != e.pattern_version) {
          vma->source = dec.pattern_sources[v];
          // The re-keyed region no longer shares the template's frames; the
          // outstanding shares are broken wholesale, like a full rewrite.
          if (vma->cow_shares != nullptr)
            *vma->cow_shares -= vma->cow.count();
          vma->cow.assign(vma->cow.size(), false);
        }
      }
      slots[v].id = shared->second;
      continue;
    }
    std::shared_ptr<os::PageSource> source;
    if (e.source_kind == SourceKind::kPattern) {
      source = dec.pattern_sources[v];
    } else {
      if (top_mode != PayloadMode::kFull)
        throw RestoreError{
            RestoreErrorKind::kUnsupported,
            "restore: digest-mode image cannot rebuild buffer-backed memory"};
      source = std::make_shared<os::BufferSource>(
          std::vector<std::uint8_t>(e.length, 0));
      slots[v].fresh_buffer = true;
    }
    slots[v].id = proc.mm().map(
        e.length, static_cast<os::Prot>(e.prot), static_cast<os::VmaKind>(e.kind),
        e.name, std::move(source), /*populate=*/false, e.backing_path);
  }
  // Image vma id -> the replica's vma id, as the template registry and the
  // WS recorder keep it. Built only on those (non-steady-state) paths.
  const auto vma_id_map = [&] {
    std::map<os::VmaId, os::VmaId> ids;
    for (std::size_t v = 0; v < vmas.size(); ++v) ids[vmas[v].id] = slots[v].id;
    return ids;
  };
  vma_span.attr("vmas", static_cast<std::uint64_t>(vmas.size()));
  vma_span.end();

  obs::Span pagemap_span = tr.span("pagemap-replay", "criu");
  // 8. Replay the pagemap(s) oldest-first, one *run* at a time (DESIGN.md
  // §6g): each pagemap entry becomes a single bulk populate (one memcpy of
  // the run's payload span, one aggregated fault charge) and, when
  // verifying, a single bulk digest compare. Under lazy paging only a prefix
  // of each run is eagerly mapped; under WS prefetch the recorded working
  // set's sub-runs are; in both cases the cold remainder goes to the uffd
  // server as run-length-encoded entries.
  std::vector<LazyRun> lazy_pending;
  std::uint64_t lazy_pending_pages = 0;
  if (paging.mode != PagingMode::kEager) {
    std::size_t runs = 0;  // the usual queue length: one entry per run
    for (std::size_t i = first; i < n; ++i)
      runs += chain.images(i).decoded().pagemap.size();
    lazy_pending.reserve(runs);
  }
  std::size_t v = 0;  // image vma of the previous pagemap entry
  for (std::size_t i = first; i < n; ++i) {
    const ImageDir::Decoded& ddec = chain.images(i).decoded();
    if (!ddec.has_pagemap)
      throw RestoreError{RestoreErrorKind::kMissingImage,
                         "restore: missing image file pagemap.img"};
    if (!ddec.pages)
      throw RestoreError{RestoreErrorKind::kMissingImage,
                         "restore: missing image file pages-1.img"};
    const std::uint64_t pages_before = result.pages_restored;
    const ImageDir::PagesView& pages = *ddec.pages;
    // Borrow the payload spans once per image; every run below slices them.
    const std::span<const std::uint64_t> digests =
        opts.verify_pages ? pages.digests() : std::span<const std::uint64_t>{};
    const std::span<const std::uint8_t> raw =
        pages.mode() == PayloadMode::kFull ? pages.raw()
                                           : std::span<const std::uint8_t>{};
    std::uint64_t cursor = 0;  // page index within this image's payload
    for (const PagemapEntry& e : ddec.pagemap) {
      // Runs come grouped by vma, so the previous entry's vma usually
      // matches; otherwise a linear scan of the (short) vma table.
      if (v >= vmas.size() || vmas[v].id != e.vma) {
        v = 0;
        while (v < vmas.size() && vmas[v].id != e.vma) ++v;
        if (v == vmas.size())
          throw RestoreError{RestoreErrorKind::kCorruptImage,
                             "restore: pagemap references unknown vma"};
      }
      const os::VmaId vma = slots[v].id;
      if (e.zero) {
        // Zero run: map fresh zero pages; no payload, no digests.
        k.fault_in(pid, vma, e.first_page, e.pages, /*write=*/false);
        result.pages_restored += e.pages;
        continue;
      }
      std::uint64_t eager = e.pages;
      if (lazy) {
        eager = static_cast<std::uint64_t>(std::ceil(
            static_cast<double>(e.pages) *
            std::clamp(paging.lazy_fraction, 0.0, 1.0)));
        if (eager < e.pages) {
          lazy_pending.push_back(
              LazyRun{vma, e.first_page + eager, e.pages - eager});
          lazy_pending_pages += e.pages - eager;
        }
      } else if (ws_record || (ws_prefetch && !have_ws)) {
        // Pure-lazy: defer the whole run. In record mode the kernel's fault
        // capture (armed below) then sees exactly the first invocation's
        // touches.
        eager = 0;
        lazy_pending.push_back(LazyRun{vma, e.first_page, e.pages});
        lazy_pending_pages += e.pages;
      } else if (ws_prefetch) {
        // The recorded WS sub-runs are faulted explicitly after the payload
        // copy; the gaps between them go to the uffd server.
        eager = 0;
      }
      std::span<const std::uint8_t> payload{};
      if (slots[v].fresh_buffer) {
        if (pages.mode() != PayloadMode::kFull)
          throw std::runtime_error{
              "restore: digest-mode image cannot rebuild buffer-backed memory"};
        // The whole run's payload (clamped against a short raw section):
        // populate_run copies it even past the eager prefix, exactly like
        // the per-page copy loop it replaces.
        const std::uint64_t off = cursor * os::kPageSize;
        if (off < raw.size())
          payload = raw.subspan(off, std::min<std::uint64_t>(
                                         e.pages * os::kPageSize,
                                         raw.size() - off));
      }
      k.populate_run(pid, vma, e.first_page, eager, payload);
      result.pages_restored += eager;

      if (ws_prefetch && have_ws) {
        // Bulk-map the recorded working set's sub-runs of this pagemap run;
        // run-length-encode the cold gaps for the uffd server.
        const auto bit = ws_pages.find(e.vma);
        std::uint64_t pos = e.first_page;
        const std::uint64_t end = e.first_page + e.pages;
        if (bit != ws_pages.end())
          bit->second.for_each_set_run(
              e.first_page, e.pages,
              [&](std::uint64_t first_page, std::uint64_t pages_in_run) {
                if (first_page > pos) {
                  lazy_pending.push_back(
                      LazyRun{vma, pos, first_page - pos});
                  lazy_pending_pages += first_page - pos;
                }
                k.fault_in(pid, vma, first_page, pages_in_run,
                           /*write=*/false);
                result.pages_restored += pages_in_run;
                result.ws_prefetched_pages += pages_in_run;
                if (opts.verify_pages) {
                  const std::uint64_t base =
                      cursor + (first_page - e.first_page);
                  const std::uint64_t avail =
                      base < digests.size() ? digests.size() - base : 0;
                  const std::uint64_t matched = k.verify_run(
                      pid, vma, first_page,
                      digests.subspan(base, std::min(pages_in_run, avail)));
                  if (matched < pages_in_run) {
                    pagemap_span.attr("error", "digest-mismatch");
                    throw RestoreError{RestoreErrorKind::kCorruptImage,
                                       "restore: page digest mismatch"};
                  }
                }
                pos = first_page + pages_in_run;
              });
        if (pos < end) {
          lazy_pending.push_back(LazyRun{vma, pos, end - pos});
          lazy_pending_pages += end - pos;
        }
      }

      if (opts.verify_pages && eager > 0) {
        const std::uint64_t avail =
            cursor < digests.size() ? digests.size() - cursor : 0;
        const std::uint64_t matched = k.verify_run(
            pid, vma, e.first_page,
            digests.subspan(cursor, std::min(eager, avail)));
        if (matched < eager) {
          pagemap_span.attr("error", "digest-mismatch");
          throw RestoreError{RestoreErrorKind::kCorruptImage,
                             "restore: page digest mismatch"};
        }
      }
      cursor += e.pages;
    }
    if (manifest && i == n - 1)
      result.delta_pages_restored = result.pages_restored - pages_before;
  }

  pagemap_span.attr("pages_restored", result.pages_restored);
  if (paging.mode != PagingMode::kEager)
    pagemap_span.attr("lazy_pending", lazy_pending_pages);
  if (ws_prefetch)
    pagemap_span.attr("ws_prefetched", result.ws_prefetched_pages);
  if (opts.verify_pages) pagemap_span.attr("verified", "true");
  pagemap_span.end();

  // 9. Reopen file descriptors (over whatever a template shell had).
  {
    obs::Span s = tr.span("fds", "criu");
    for (const FileEntry& e : files) {
      os::FdDesc desc;
      desc.fd = e.fd;
      desc.kind = static_cast<os::FdKind>(e.kind);
      desc.path = e.path;
      desc.pipe_id = e.pipe_id;
      proc.fds()[e.fd] = desc;
    }
  }

  proc.set_state(os::ProcState::kRunning);
  cleanup.pid = os::kNoPid;
  result.pid = pid;
  if (store != nullptr && paging.mode == PagingMode::kEager) {
    // Whatever the payload source was, the node now holds these pages.
    for (std::size_t i = first; i < n; ++i)
      if (chain.images(i).decoded().pages)
        store->insert(chain.images(i).decoded().pages->digests());
    if (!opts.store_key.empty() && !store->has_template(opts.store_key)) {
      // 10. First restore of this snapshot on the node: freeze the restored
      // process into an immutable template and hand back a COW clone
      // ("restore once, clone many"). Later replicas of the same snapshot
      // skip the image reads entirely via the template fast path. A
      // template over a pinned base records that dependency for refcounted
      // eviction.
      obs::Span tspan = tr.span("template-materialize", "criu");
      tspan.attr("key", opts.store_key);
      k.freeze(pid, opts.criu_caps);
      proc.set_name(inv.name + " [template]");
      PageStore::TemplateInfo info;
      info.pid = pid;
      info.vma_map = vma_id_map();
      for (std::size_t i = 0; i < n; ++i) {
        const ImageDir::Decoded& ddec = chain.images(i).decoded();
        if (ddec.pages) {
          const std::span<const std::uint64_t> d = ddec.pages->digests();
          info.digests.insert(info.digests.end(), d.begin(), d.end());
        }
      }
      info.vma_map.insert(shell_vmas->begin(), shell_vmas->end());
      if (first > 0) info.base_key = lower[0].store_key;
      store->register_template(opts.store_key, std::move(info));
      result.template_materialized = true;
      result.pid = spawn_template_clone(k, pid, inv, opts);
    }
  } else if (store != nullptr && ws_prefetch && have_ws) {
    // The node now holds the working-set pages (they were read up front);
    // the cold tail only lands page by page via the uffd server and is not
    // tracked. Re-inserting digests the delta path already registered is a
    // no-op — the store is content addressed.
    for (const std::vector<std::uint64_t>& d : ws_digests)
      if (!d.empty()) store->insert(d);
  }
  if (paging.mode != PagingMode::kEager)
    result.lazy_server = std::make_shared<LazyPagesServer>(
        k, pid, opts.fs_prefix, std::move(lazy_pending));
  if (ws_record) {
    // Arm the kernel's fault capture only now, after the replay: everything
    // recorded from here on — lazy page-ins, the invocation's own touches —
    // is the first invocation's working set. Host-side bookkeeping, no
    // simulated time.
    auto rec = std::make_shared<WsRecorder>();
    rec->pid = pid;
    rec->image_to_new = vma_id_map();
    k.start_fault_recording(pid);
    result.ws_recorder = std::move(rec);
  }
  result.duration = k.sim().now() - t0;
  restore_span.attr("pages", result.pages_restored);
  restore_span.attr("bytes_read", result.bytes_read);
  tr.measure("criu.restore_ms", result.duration.to_millis());
  return result;
}

LazyPagesServer::LazyPagesServer(os::Kernel& kernel, os::Pid pid,
                                 std::string fs_prefix,
                                 std::vector<LazyRun> pending)
    : kernel_{&kernel},
      pid_{pid},
      fs_prefix_{std::move(fs_prefix)},
      pending_{std::move(pending)} {
  for (const LazyRun& run : pending_) remaining_ += run.pages;
}

std::uint64_t LazyPagesServer::page_in(std::uint64_t pages) {
  if (kernel_ == nullptr) return 0;
  os::Kernel& k = *kernel_;
  faults::Injector& inj = k.faults();
  obs::Span span = k.trace().span("lazy.page-in", "criu");
  span.attr("requested", pages);
  // Transient image-read errors during a page-in are retried this many times
  // before giving up — a persistently failing device means the target would
  // fault forever.
  constexpr int kMaxReadAttempts = 3;
  // The image file, resolved by the first page that reads it.
  os::FileSystem::Handle pages_file;
  std::uint64_t served = 0;
  while (served < pages && run_ < pending_.size()) {
    // Pages are served in first-touch order, one uffd round trip each; the
    // run-length encoding only compresses the queue, not the fault costs.
    const os::VmaId vma = pending_[run_].vma;
    const std::uint64_t page = pending_[run_].first_page + run_off_;
    if (++run_off_ >= pending_[run_].pages) {
      ++run_;
      run_off_ = 0;
    }
    --remaining_;
    if (!died_ && inj.enabled() &&
        inj.fires(faults::FaultSite::kLazyServerDeath)) {
      // The uffd daemon died mid-fault. The supervisor respawns it (once per
      // server in this model) and the faulting thread eats the latency.
      died_ = true;
      ++deaths_;
      k.sim().advance(k.costs().clone_call + k.costs().exec_base);
    }
    // uffd round trip + reading the page from the (cached) image.
    k.sim().advance(k.costs().uffd_fault);
    for (int attempt = 1;; ++attempt) {
      try {
        if (!fs_prefix_.empty()) {
          if (!pages_file) pages_file = k.fs().require(fs_prefix_, kPagesFile);
          k.fs().charge_read(pages_file, os::kPageSize);
        } else {
          k.sim().advance(k.costs().page_cache_read_cost(os::kPageSize));
        }
        break;
      } catch (const os::IoError& e) {
        if (attempt >= kMaxReadAttempts)
          throw RestoreError{RestoreErrorKind::kIoError, e.what()};
      }
    }
    if (k.alive(pid_)) k.fault_in(pid_, vma, page, 1, /*write=*/false);
    ++served;
  }
  span.attr("served", served);
  k.trace().count("criu.lazy_pages_served", served);
  return served;
}

}  // namespace prebake::criu
