#include "exp/migration.hpp"

#include <memory>

#include "exp/calibration.hpp"
#include "exp/run.hpp"

namespace prebake::exp {

namespace {

// Baseline for the migration's break-even claim: deploy the same function
// on a fresh single-node cluster with the same cost model and measure the
// start-up a single cold request pays when the images must come from the
// registry. This is the bill for destroying a warm replica instead of
// migrating it — the very next request eats a full remote restore.
double cold_restore_baseline_ms(const MigrationScenarioConfig& config,
                                rt::FunctionSpec spec) {
  sim::Simulation sim;
  os::Kernel kernel{sim, testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.idle_timeout = config.idle_timeout;
  cfg.remote_registry = config.remote_registry;
  cfg.page_store = config.page_store;
  faas::Platform platform{kernel, testbed_runtime(), cfg, config.seed};
  platform.resources().add_node("cold", config.node_mem_bytes,
                                config.cpus_per_node);
  platform.deploy(spec, faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));

  const funcs::Request req =
      funcs::sample_request(platform.registry().get(spec.name).spec.handler_id);
  auto done = std::make_shared<bool>(false);
  platform.invoke(spec.name, req,
                  [done](const funcs::Response&, const faas::RequestMetrics&) {
                    *done = true;
                  });
  while (!*done && sim.step()) {
  }
  if (platform.request_log().empty()) return 0.0;
  return platform.request_log().front().startup.to_millis();
}

}  // namespace

MigrationScenarioResult detail::run_migration_impl(
    const MigrationScenarioConfig& config, obs::TraceReport* trace) {
  sim::Simulation sim;
  os::Kernel kernel{sim, testbed_costs()};
  obs::Tracer& tr = kernel.trace();
  if (trace != nullptr) tr.enable();
  obs::Span root = tr.span("scenario", "exp");
  root.attr("kind", "migration");
  root.attr("nodes", static_cast<std::uint64_t>(config.nodes));
  root.attr("dirty_pages", config.request_dirty_pages);

  faas::PlatformConfig cfg;
  cfg.idle_timeout = config.idle_timeout;
  cfg.remote_registry = config.remote_registry;
  cfg.page_store = config.page_store;
  // One replica: the replica being live-migrated is the one serving the
  // stream, so the dirty-page knob dirties the very chain under study (and
  // overlapping arrivals queue briefly instead of spawning spares).
  cfg.max_replicas_per_function = 1;
  cfg.aggregate_request_log = true;
  cfg.restore_max_attempts = config.restore_max_attempts;
  cfg.restore_retry_backoff = config.restore_retry_backoff;
  cfg.node_recovery_delay = config.node_recovery_delay;
  cfg.migration = config.migration;
  cfg.evacuation_threshold = config.evacuation_threshold;
  cfg.evacuation_cooldown = config.evacuation_cooldown;
  faas::Platform platform{kernel, testbed_runtime(), cfg, config.seed};
  platform.resources().set_policy(config.policy);
  for (std::uint32_t i = 0; i < config.nodes; ++i)
    platform.resources().add_node("w" + std::to_string(i + 1),
                                  config.node_mem_bytes, config.cpus_per_node);

  rt::FunctionSpec spec = noop_spec();
  spec.request_dirty_pages = config.request_dirty_pages;
  const std::string fn = spec.name;
  platform.deploy(spec, faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));

  // Pre-warm the replica whose migration the run studies, then pump until
  // it is idle-resident: the move must find a warm replica, not race its
  // first start-up.
  platform.scale_up(fn, 1);
  while (platform.idle_replica_count(fn) == 0 && sim.step()) {
  }

  // Arm the injector only now: deploy-time bake and the initial placement
  // are verified elsewhere; the chaos under study targets the migration.
  kernel.faults().configure(config.faults);

  const sim::TimePoint start = sim.now();
  // The move itself, mid-run.
  auto source_node = std::make_shared<faas::NodeId>(faas::kNoNode);
  sim.schedule_at(start + config.migrate_at,
                  [&platform, source_node, fn, config] {
                    *source_node = platform.find_replica_node(fn);
                    if (config.drain_source) {
                      if (*source_node != faas::kNoNode)
                        platform.drain_node(
                            *source_node,
                            faas::Platform::DrainMode::kMigrateWarm);
                    } else {
                      platform.migrate_replica(fn, faas::kNoNode, config.to);
                    }
                  });

  const faas::StreamReplayResult rep = detail::replay_poisson_window(
      platform, {fn}, config.rate_hz, config.duration, config.seed);
  if (config.node_recovery_delay > sim::Duration{}) {
    const sim::TimePoint settle = sim.now() + config.node_recovery_delay;
    while (sim.now() < settle && sim.step()) {
    }
  }

  MigrationScenarioResult out;
  out.requests = rep.events;
  out.answered = rep.responses_ok + rep.responses_rejected;
  out.responses_ok = rep.responses_ok;
  const faas::PlatformStats& stats = platform.stats();
  out.rejected = stats.rejected;
  out.availability = out.requests == 0
                         ? 1.0
                         : static_cast<double>(out.responses_ok) /
                               static_cast<double>(out.requests);
  out.migrations_started = stats.migrations_started;
  out.migrations_completed = stats.migrations_completed;
  out.migrations_aborted = stats.migrations_aborted;
  out.migration_rounds = stats.migration_rounds;
  out.migration_full_dumps = stats.migration_full_dumps;
  out.migration_dest_retries = stats.migration_dest_retries;
  out.migration_precopy_bytes = stats.migration_precopy_bytes;
  out.migration_final_bytes = stats.migration_final_bytes;
  out.downtime_ms =
      stats.migrations_completed == 0
          ? 0.0
          : stats.migration_downtime.to_millis() /
                static_cast<double>(stats.migrations_completed);
  out.evacuations = stats.evacuations;
  out.rebalance_moves = stats.rebalance_moves;
  out.node_crashes = stats.node_crashes;
  out.cold_starts = stats.cold_starts;
  out.replicas_started = stats.replicas_started;
  for (const faas::WorkerNode& n : platform.resources().nodes()) {
    out.warmth_replicas_migrated += n.stats().warmth_replicas_migrated;
    out.warmth_replicas_destroyed += n.stats().warmth_replicas_destroyed;
    out.warmth_template_pages_destroyed +=
        n.stats().warmth_template_pages_destroyed;
  }
  out.source_node = *source_node;
  out.final_node = platform.find_replica_node(fn);

  const faas::RequestAggregate& agg = platform.request_aggregate();
  out.total_p50_ms = agg.total_ms.percentile(0.50);
  out.total_p95_ms = agg.total_ms.percentile(0.95);

  const faults::Injector& inj = kernel.faults();
  out.faults_injected = inj.total_fired();
  for (std::size_t s = 0; s < faults::kFaultSiteCount; ++s) {
    const auto site = static_cast<faults::FaultSite>(s);
    out.fired_by_site.emplace_back(faults::fault_site_name(site),
                                   inj.fired(site));
  }

  // The baseline runs on its own simulation with a pristine injector, so
  // it never perturbs (and is never perturbed by) the main run.
  out.cold_restore_ms = cold_restore_baseline_ms(config, spec);

  root.attr("migrations_completed", out.migrations_completed);
  root.end();
  if (trace != nullptr) {
    trace->absorb(tr);
    trace->finalize();
  }
  return out;
}

MigrationScenarioResult run_migration_scenario(
    const MigrationScenarioConfig& config) {
  return run(ScenarioSpec::from(config)).migration;
}

}  // namespace prebake::exp
