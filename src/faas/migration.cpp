#include "faas/migration.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "os/faults.hpp"

namespace prebake::faas {

Migrator::PreDump Migrator::pre_dump(
    os::Pid pid, std::span<const criu::ImageDir* const> chain) {
  os::Kernel& k = *kernel_;
  // The dump-fault draw comes before any work: a source dying mid-round
  // leaves no usable link, and the caller must keep serving locally.
  if (k.faults().fires(faults::FaultSite::kMigrationDumpFault))
    throw MigrationError{MigrationErrorKind::kSourceLost,
                         "migration: source failed during pre-dump round"};
  criu::DumpOptions opts;
  opts.pre_dump = true;
  opts.parent_chain = chain;
  opts.payload_mode = criu::PayloadMode::kDigest;
  criu::DumpResult r = criu::Dumper{k}.dump(pid, opts);
  PreDump out;
  out.dumped_pages = r.stats.pages_dumped;
  out.link = std::make_unique<criu::ImageDir>(std::move(r.images));
  return out;
}

criu::DumpResult Migrator::final_dump(
    os::Pid pid, std::span<const criu::ImageDir* const> chain,
    std::uint32_t warmup_requests) {
  os::Kernel& k = *kernel_;
  if (k.faults().fires(faults::FaultSite::kMigrationDumpFault))
    throw MigrationError{MigrationErrorKind::kSourceLost,
                         "migration: source failed during final dump"};
  criu::DumpOptions opts;
  // leave_running: the frozen source is killed only after the destination
  // resumed; until then it is the abort-to-local fallback.
  opts.leave_running = true;
  opts.parent_chain = chain;
  opts.payload_mode = criu::PayloadMode::kDigest;
  opts.warmup_requests = warmup_requests;
  return criu::Dumper{k}.dump(pid, opts);
}

Migrator::Shipped Migrator::ship_link(const criu::ImageDir& link,
                                      criu::PageStore* dest_store) {
  os::Kernel& k = *kernel_;
  const os::CostModel& costs = k.costs();
  Shipped out;

  // Metadata (inventory, core, mm, pagemap, files, stats) always ships
  // whole; only the page payload is delta-negotiable.
  std::uint64_t metadata_bytes = 0;
  std::uint64_t payload_nominal = 0;
  for (const auto& [name, f] : link.files()) {
    if (name == "pages-1.img")
      payload_nominal = f.nominal_size;
    else
      metadata_bytes += f.nominal_size;
  }

  std::uint64_t payload_bytes = payload_nominal;
  const criu::ImageDir::Decoded& dec = link.decoded();
  if (dest_store != nullptr && config_.delta_transfer && dec.pages &&
      dec.pages->page_count() > 0 &&
      dec.pages->mode() == criu::PayloadMode::kDigest) {
    // Digest handshake mirroring the registry path (criu/restore.cpp):
    // one RTT + the digest list, then only the pages the destination's
    // content-addressed store is missing cross the wire.
    const std::span<const std::uint64_t> digests = dec.pages->digests();
    const std::uint64_t digest_bytes = digests.size() * sizeof(std::uint64_t);
    k.sim().advance(costs.network_rtt);
    k.sim().advance(costs.network_fetch_cost(digest_bytes));
    const std::uint64_t missing = dest_store->missing_unique_pages(digests);
    const std::uint64_t hit = digests.size() - missing;
    payload_bytes = missing * os::kPageSize;
    criu::PageStoreStats& st = dest_store->stats_mut();
    st.hit_pages += hit;
    st.miss_pages += missing;
    st.delta_bytes += payload_bytes;
    st.digest_bytes += digest_bytes;
    dest_store->insert(digests);
    out.bytes += digest_bytes;
  }

  const std::uint64_t wire_bytes = metadata_bytes + payload_bytes;
  k.sim().advance(costs.network_rtt);
  if (wire_bytes > 0) k.sim().advance(costs.network_fetch_cost(wire_bytes));
  out.bytes += wire_bytes;

  // Corruption is detected on arrival by the link's CRC trailer — the link
  // is rejected whole. Reported, not thrown: for a pre-copy link the chain
  // is merely degraded (fall back to a full dump); only the caller knows.
  out.corrupt = k.faults().fires(faults::FaultSite::kMigrationLinkCorrupt);
  return out;
}

sim::Duration Migrator::apply_cost(const criu::ImageDir& link) const {
  const os::CostModel& costs = kernel_->costs();
  const criu::ImageDir::Decoded& dec = link.decoded();
  std::uint64_t pages = 0;
  if (dec.pages) {
    pages = dec.pages->page_count();
  } else {
    const auto it = link.files().find("pages-1.img");
    if (it != link.files().end())
      pages = it->second.nominal_size / os::kPageSize;
  }
  const std::uint64_t bytes = pages * os::kPageSize;
  return costs.page_cache_read_cost(bytes) + costs.memcpy_cost(bytes) +
         costs.pagemap_per_page * static_cast<double>(pages);
}

sim::Duration Migrator::resume_cost() const {
  const os::CostModel& costs = kernel_->costs();
  return costs.freeze_per_thread + costs.ptrace_attach + costs.parasite_cure;
}

criu::RestoreResult Migrator::restore_at(
    std::span<const criu::ImageDir* const> chain, os::Cap criu_caps) {
  criu::RestoreOptions opts;
  // Shipped links live in destination memory: no storage read is charged
  // beyond decode + mapping (fs_prefix stays empty), which is exactly the
  // latency edge live migration has over a cold registry re-restore.
  opts.criu_caps = criu_caps;
  opts.restore_original_pid = false;
  if (chain.empty()) throw std::invalid_argument{"restore_at: empty chain"};
  std::vector<criu::ImageLink> parents;
  parents.reserve(chain.size() - 1);
  for (const criu::ImageDir* link : chain.first(chain.size() - 1))
    parents.push_back(criu::ImageLink{link, "", ""});
  return criu::Restorer{*kernel_}.restore(*chain.back(), opts, parents);
}

}  // namespace prebake::faas
