#include "exp/cluster.hpp"

#include "exp/calibration.hpp"
#include "exp/run.hpp"

namespace prebake::exp {

ClusterScenarioResult detail::run_cluster_impl(
    const ClusterScenarioConfig& config, obs::TraceReport* trace) {
  sim::Simulation sim;
  os::Kernel kernel{sim, testbed_costs()};
  obs::Tracer& tr = kernel.trace();
  if (trace != nullptr) tr.enable();
  // Everything — deploys, restores, serving — nests under one root span.
  obs::Span root = tr.span("scenario", "exp");
  root.attr("kind", "cluster");
  root.attr("nodes", static_cast<std::uint64_t>(config.nodes));
  root.attr("policy", faas::placement_policy_name(config.policy));

  faas::PlatformConfig cfg;
  cfg.idle_timeout = config.idle_timeout;
  cfg.remote_registry = config.remote_registry;
  cfg.node_snapshot_cache_bytes = config.node_snapshot_cache_bytes;
  cfg.page_store = config.page_store;
  cfg.node_page_store_bytes = config.node_page_store_bytes;
  cfg.aggregate_request_log = true;
  faas::Platform platform{kernel, testbed_runtime(), cfg, config.seed};
  platform.resources().set_policy(config.policy);
  for (std::uint32_t i = 0; i < config.nodes; ++i)
    platform.resources().add_node("w" + std::to_string(i + 1),
                                  config.node_mem_bytes, config.cpus_per_node);

  const rt::FunctionSpec specs[] = {noop_spec(), markdown_spec(),
                                    image_resizer_spec()};
  std::vector<std::string> functions;
  for (const rt::FunctionSpec& spec : specs) {
    functions.push_back(spec.name);
    platform.deploy(spec, config.mode, core::SnapshotPolicy::warmup(1));
  }

  const faas::StreamReplayResult rep = detail::replay_poisson_window(
      platform, functions, config.rate_hz, config.duration, config.seed);

  ClusterScenarioResult out;
  const faas::PlatformStats& stats = platform.stats();
  out.requests = stats.invocations;
  out.responses_ok = rep.responses_ok;
  out.rejected = stats.rejected;
  out.cold_starts = stats.cold_starts;
  out.restore_fallbacks = stats.restore_fallbacks;
  out.replicas_started = stats.replicas_started;

  const faas::RequestAggregate& agg = platform.request_aggregate();
  out.total_p50_ms = agg.total_ms.percentile(0.50);
  out.total_p95_ms = agg.total_ms.percentile(0.95);
  out.total_p99_ms = agg.total_ms.percentile(0.99);
  out.cold_startup_p50_ms = agg.cold_startup_ms.percentile(0.50);
  out.cold_startup_p95_ms = agg.cold_startup_ms.percentile(0.95);

  for (const faas::WorkerNode& n : platform.resources().nodes()) {
    ClusterNodeReport report;
    report.id = n.id();
    report.name = n.name();
    report.state = faas::node_state_name(n.state());
    report.replicas = n.replicas();
    report.mem_used = n.mem_used();
    report.mem_capacity = n.mem_capacity();
    report.replicas_placed = n.stats().replicas_placed;
    report.snapshot_hits = n.stats().snapshot_hits;
    report.snapshot_misses = n.stats().snapshot_misses;
    report.snapshot_evictions = n.stats().snapshot_evictions;
    report.remote_bytes_fetched = n.stats().remote_bytes_fetched;
    report.cache_entries = n.cache_entries();
    report.cache_bytes = n.cache_bytes();
    report.busy_ms = n.stats().busy.to_millis();
    report.store_hit_pages = n.stats().store_hit_pages;
    report.store_delta_bytes = n.stats().store_delta_bytes;
    report.template_clones = n.stats().template_clones;
    report.store_pages = n.store().stored_pages();
    report.store_templates = n.store().template_count();
    report.migrations_out = n.stats().migrations_out;
    report.migrations_in = n.stats().migrations_in;
    report.migrations_aborted = n.stats().migrations_aborted;
    report.warmth_replicas_migrated = n.stats().warmth_replicas_migrated;
    report.warmth_replicas_destroyed = n.stats().warmth_replicas_destroyed;
    out.snapshot_hits += report.snapshot_hits;
    out.snapshot_misses += report.snapshot_misses;
    out.remote_bytes_fetched += report.remote_bytes_fetched;
    out.store_hit_pages += report.store_hit_pages;
    out.store_delta_bytes += report.store_delta_bytes;
    out.template_clones += report.template_clones;
    out.nodes.push_back(std::move(report));
  }

  root.end();
  if (trace != nullptr) {
    trace->absorb(tr);
    trace->finalize();
  }
  return out;
}

ClusterScenarioResult run_cluster_scenario(const ClusterScenarioConfig& config) {
  return run(ScenarioSpec::from(config)).cluster;
}

}  // namespace prebake::exp
