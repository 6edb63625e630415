#include "criu/dump.hpp"

#include <array>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

namespace prebake::criu {

DumpResult Dumper::dump(os::Pid pid, const DumpOptions& opts) {
  os::Kernel& k = *kernel_;
  obs::Tracer& tr = k.trace();
  const sim::TimePoint t0 = k.sim().now();
  os::Process& target = k.process(pid);
  if (target.state() != os::ProcState::kRunning)
    throw std::logic_error{"criu dump: target is not running"};

  obs::Span dump_span = tr.span("criu.dump", "criu");
  dump_span.attr("pid", static_cast<std::int64_t>(pid));
  if (opts.pre_dump) dump_span.attr("pre_dump", "true");

  const bool privileged = os::has_cap(opts.criu_caps, os::Cap::kSysAdmin) ||
                          os::has_cap(opts.criu_caps, os::Cap::kSysPtrace) ||
                          os::has_cap(opts.criu_caps, os::Cap::kCheckpointRestore);
  if (!privileged)
    throw std::runtime_error{
        "criu dump: need CAP_SYS_ADMIN, CAP_SYS_PTRACE or CAP_CHECKPOINT_RESTORE"};

  // 1. Seize and freeze every thread so the state cannot change under us.
  {
    obs::Span s = tr.span("freeze", "criu");
    k.ptrace_seize(pid, opts.criu_caps);
    k.freeze(pid, opts.criu_caps);
  }

  // 2. Discover resident memory from /proc/$pid/pagemap.
  obs::Span walk_span = tr.span("pagemap-walk", "criu");
  const std::vector<os::PagemapRange> ranges = k.pagemap(pid);
  walk_span.attr("ranges", static_cast<std::uint64_t>(ranges.size()));
  walk_span.end();

  // Parent coverage for incremental dumps: a page is skipped if a parent
  // already holds it and it has not been dirtied since. A pre-dump chain
  // contributes every link's pagemap (nested --prev-images-dir semantics:
  // each link covers only its own round's delta, so coverage is the union).
  std::set<std::pair<os::VmaId, std::uint64_t>> parent_pages;
  const auto cover = [&parent_pages](const ImageDir& link) {
    const auto maps = decode_pagemap(link.get("pagemap.img").bytes);
    for (const PagemapEntry& e : maps)
      for (std::uint64_t p = 0; p < e.pages; ++p)
        parent_pages.emplace(e.vma, e.first_page + p);
  };
  for (const ImageDir* link : opts.parent_chain)
    if (link != nullptr) cover(*link);
  const bool incremental = !opts.parent_chain.empty();

  // 3. Inject the parasite into the frozen target.
  obs::Span parasite_span = tr.span("parasite", "criu");
  parasite_span.attr("blob_bytes", opts.parasite_blob_bytes);
  k.inject_parasite(pid, opts.parasite_blob_bytes);
  const std::uint64_t pipe = k.create_pipe();
  parasite_span.end();
  obs::Span stream_span = tr.span("page-stream", "criu");

  // 4. Stream page contents: the parasite reads the target address space and
  // sends pages to the criu process through the pipe.
  std::vector<PagemapEntry> dumped_ranges;
  PagesEntry pages;
  pages.mode = opts.payload_mode;
  std::uint64_t pages_dumped = 0;
  std::uint64_t zero_pages = 0;

  // Zero-page detection (CRIU's PAGE_IS_ZERO): all-zero pages carry no
  // payload; restore maps fresh zero pages instead of reading bytes.
  static const std::uint64_t kZeroDigest = [] {
    const std::array<std::uint8_t, os::kPageSize> zeros{};
    return os::hash_page_bytes(
        std::span<const std::uint8_t, os::kPageSize>{zeros});
  }();

  // Base coverage for a layered split (DESIGN.md §6k): position -> content
  // digest of every page the base layer carries. A target page is skipped
  // when the base holds the *same content at the same (vma, page)* — valid
  // because base and function processes share vma ids and page content for
  // the common runtime prefix (both boot the same runtime binary with the
  // same fixed-seed sources), and page content in the model never changes
  // after mapping (writes only set dirty bits).
  std::map<std::pair<os::VmaId, std::uint64_t>, std::uint64_t> base_cover;
  std::uint64_t shared_with_base = 0;
  if (opts.split_base != nullptr) {
    const ImageDir::Decoded& bdec = opts.split_base->decoded();
    std::span<const std::uint64_t> bdig;
    if (bdec.pages) bdig = bdec.pages->digests();
    std::uint64_t cursor = 0;
    for (const PagemapEntry& e : bdec.pagemap) {
      if (e.zero) {
        for (std::uint64_t p = 0; p < e.pages; ++p)
          base_cover[{e.vma, e.first_page + p}] = kZeroDigest;
      } else {
        for (std::uint64_t p = 0; p < e.pages; ++p)
          base_cover[{e.vma, e.first_page + p}] =
              cursor + p < bdig.size() ? bdig[cursor + p] : 0;
        cursor += e.pages;
      }
    }
  }

  for (const os::PagemapRange& range : ranges) {
    const os::Vma* vma = target.mm().find(range.vma);
    if (vma == nullptr || vma->name == "[criu-parasite]") continue;

    PagemapEntry current{};
    bool open = false;
    auto flush = [&] {
      if (open && current.pages > 0) dumped_ranges.push_back(current);
      open = false;
    };
    for (std::uint64_t i = 0; i < range.pages; ++i) {
      const std::uint64_t page = range.first_page + i;
      const bool dirty = page < vma->dirty.size() && vma->dirty[page];
      if (incremental && !dirty &&
          parent_pages.contains({range.vma, page})) {
        flush();
        continue;  // unchanged since parent snapshot
      }
      const std::uint64_t digest = vma->source->page_digest(page);
      if (opts.split_base != nullptr) {
        const auto itb = base_cover.find({range.vma, page});
        if (itb != base_cover.end() && itb->second == digest) {
          ++shared_with_base;
          flush();
          continue;  // the base layer already carries this exact content
        }
      }
      const bool is_zero = digest == kZeroDigest;
      if (!open || current.zero != is_zero) {
        flush();
        current = PagemapEntry{range.vma, page, 0, is_zero};
        open = true;
      }
      ++current.pages;
      if (is_zero) {
        ++zero_pages;
        continue;  // no pipe transfer, no payload
      }
      ++pages_dumped;

      k.pipe_transfer(pipe, os::kPageSize);
      if (opts.payload_mode == PayloadMode::kFull) {
        std::array<std::uint8_t, os::kPageSize> buf{};
        vma->source->fill(page, std::span<std::uint8_t, os::kPageSize>{buf});
        pages.raw.insert(pages.raw.end(), buf.begin(), buf.end());
        pages.digests.push_back(os::hash_page_bytes(
            std::span<const std::uint8_t, os::kPageSize>{buf}));
      } else {
        pages.digests.push_back(digest);
      }
    }
    flush();
  }

  stream_span.attr("pages", pages_dumped);
  stream_span.attr("zero_pages", zero_pages);
  stream_span.end();

  // 5. Serialize metadata.
  obs::Span serialize_span = tr.span("serialize", "criu");
  InventoryEntry inv;
  inv.root_pid = pid;
  inv.name = target.name();
  inv.argv = target.argv();
  inv.n_threads = static_cast<std::uint32_t>(target.threads().size());
  inv.ns = target.ns();
  inv.caps = static_cast<std::uint32_t>(target.caps());

  std::vector<CoreEntry> cores;
  for (const os::Thread& t : target.threads())
    cores.push_back(CoreEntry{t.tid, t.regs});

  std::vector<VmaEntry> vmas;
  for (const os::Vma& vma : target.mm().vmas()) {
    if (vma.name == "[criu-parasite]") continue;
    VmaEntry e;
    e.id = vma.id;
    e.start = vma.start;
    e.length = vma.length;
    e.prot = static_cast<std::uint8_t>(vma.prot);
    e.kind = static_cast<std::uint8_t>(vma.kind);
    e.name = vma.name;
    e.backing_path = vma.backing_path;
    if (const auto* pattern = dynamic_cast<const os::PatternSource*>(vma.source.get())) {
      e.source_kind = SourceKind::kPattern;
      e.pattern_seed = pattern->seed();
      e.pattern_version = pattern->version();
    } else {
      e.source_kind = SourceKind::kBuffer;
    }
    vmas.push_back(std::move(e));
  }

  std::vector<FileEntry> files;
  for (const auto& [fd, desc] : target.fds())
    files.push_back(FileEntry{fd, static_cast<std::uint8_t>(desc.kind),
                              desc.path, desc.pipe_id});

  DumpResult result;
  ImageDir& dir = result.images;
  dir.put("inventory.img", encode_inventory(inv));
  dir.put("core-" + std::to_string(pid) + ".img", encode_core(cores));
  dir.put("mm.img", encode_mm(vmas));
  dir.put("pagemap.img", encode_pagemap(dumped_ranges));
  const std::uint64_t payload_bytes = pages_dumped * os::kPageSize;
  dir.put("pages-1.img", encode_pages(pages), payload_bytes);
  dir.put("files.img", encode_files(files));
  if (opts.split_base != nullptr) {
    // The delta names the exact base it was diffed against: registry id plus
    // a content digest restore re-checks before pairing the layers.
    LayerManifest manifest;
    LayerRef base_ref;
    base_ref.id = opts.split_base_id;
    base_ref.content_digest = layer_digest(*opts.split_base);
    for (const PagemapEntry& e : opts.split_base->decoded().pagemap)
      (e.zero ? base_ref.zero_pages : base_ref.pages) += e.pages;
    manifest.layers.push_back(std::move(base_ref));
    LayerRef delta_ref;
    delta_ref.id = inv.name;
    delta_ref.pages = pages_dumped;
    delta_ref.zero_pages = zero_pages;
    manifest.layers.push_back(std::move(delta_ref));
    manifest.shared_pages = shared_with_base;
    dir.put(kLayersImageName, encode_layers(manifest));
    dump_span.attr("shared_with_base", shared_with_base);
  }

  StatsEntry stats;
  stats.pages_dumped = pages_dumped;
  stats.zero_pages = zero_pages;
  stats.payload_bytes = payload_bytes;
  stats.warmup_requests = opts.warmup_requests;
  serialize_span.end();

  // 6. Cure the parasite and release the target.
  obs::Span cure_span = tr.span("cure", "criu");
  k.cure_parasite(pid);
  if (opts.pre_dump) {
    k.clear_soft_dirty(pid);
    k.thaw(pid);
  } else if (opts.leave_running) {
    k.thaw(pid);
  } else {
    k.thaw(pid);
    k.kill_process(pid);
    k.reap(pid);
  }

  cure_span.end();

  // 7. Persist to storage (image files hit the disk at write bandwidth).
  std::uint64_t metadata_bytes = 0;
  for (const auto& [name, f] : dir.files())
    if (name != "pages-1.img") metadata_bytes += f.nominal_size;
  stats.metadata_bytes = metadata_bytes;

  if (!opts.fs_prefix.empty()) {
    obs::Span persist_span = tr.span("persist", "criu.io");
    faults::Injector& inj = k.faults();
    for (const auto& [name, f] : dir.files()) {
      // Per-image write span, mirroring the restore side's "read:<name>".
      obs::Span write_span;
      if (tr.enabled()) {
        write_span = tr.span("write:" + name, "criu.io");
        write_span.attr("bytes", f.nominal_size);
        tr.count("criu.bytes_written", f.nominal_size);
      }
      k.fs().create(opts.fs_prefix + name, f.nominal_size);
      // Freshly written images sit in the page cache.
      k.fs().warm(opts.fs_prefix + name);
      k.sim().advance(k.costs().disk_write_cost(f.nominal_size));
      // A truncated persist: the write returned short and nobody checked.
      // Restore detects the size mismatch and fails typed; the platform
      // heals it by quarantining the snapshot and re-baking.
      if (f.nominal_size > 0 && inj.enabled() &&
          inj.fires(faults::FaultSite::kTruncatedWrite)) {
        write_span.attr("truncated", "true");
        k.fs().truncate(opts.fs_prefix + name, f.nominal_size / 2);
      }
    }
  }

  stats.dump_duration_ns = (k.sim().now() - t0).nanos_count();
  dir.put("stats.img", encode_stats(stats));
  if (!opts.fs_prefix.empty()) {
    k.fs().create(opts.fs_prefix + "stats.img",
                  dir.get("stats.img").nominal_size);
    k.fs().warm(opts.fs_prefix + "stats.img");
  }

  result.stats = stats;
  result.shared_with_base = shared_with_base;
  result.duration = sim::Duration::nanos(stats.dump_duration_ns);
  dump_span.attr("pages", pages_dumped);
  dump_span.attr("payload_bytes", payload_bytes);
  tr.measure("criu.dump_ms", result.duration.to_millis());
  return result;
}

}  // namespace prebake::criu
