#include "exp/chaos.hpp"

#include "exp/calibration.hpp"
#include "exp/run.hpp"

namespace prebake::exp {

ChaosScenarioResult detail::run_chaos_impl(const ChaosScenarioConfig& config,
                                           obs::TraceReport* trace) {
  sim::Simulation sim;
  os::Kernel kernel{sim, testbed_costs()};
  obs::Tracer& tr = kernel.trace();
  if (trace != nullptr) tr.enable();
  obs::Span root = tr.span("scenario", "exp");
  root.attr("kind", "chaos");
  root.attr("nodes", static_cast<std::uint64_t>(config.nodes));
  root.attr("policy", faas::placement_policy_name(config.policy));

  faas::PlatformConfig cfg;
  cfg.idle_timeout = config.idle_timeout;
  cfg.remote_registry = config.remote_registry;
  cfg.node_snapshot_cache_bytes = config.node_snapshot_cache_bytes;
  cfg.aggregate_request_log = true;
  cfg.restore_max_attempts = config.restore_max_attempts;
  cfg.restore_retry_backoff = config.restore_retry_backoff;
  cfg.restore_deadline = config.restore_deadline;
  cfg.quarantine_threshold = config.quarantine_threshold;
  cfg.node_recovery_delay = config.node_recovery_delay;
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
    platform.deploy(spec, faas::StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  }

  // Arm the injector only after the deploy-time bakes: the chaos under
  // study is the restore/serving path, not the verified build step.
  kernel.faults().configure(config.faults);

  const faas::StreamReplayResult rep = detail::replay_poisson_window(
      platform, functions, config.rate_hz, config.duration, config.seed);
  // Let in-flight recovery timers settle: a crash during the last requests
  // schedules its node's recovery up to node_recovery_delay past the final
  // response, and end-of-run stats should reflect the healed cluster.
  if (config.node_recovery_delay > sim::Duration{}) {
    const sim::TimePoint settle = sim.now() + config.node_recovery_delay;
    while (sim.now() < settle && sim.step()) {
    }
  }

  ChaosScenarioResult out;
  out.requests = rep.events;
  out.answered = rep.responses_ok + rep.responses_rejected;
  out.responses_ok = rep.responses_ok;
  const faas::PlatformStats& stats = platform.stats();
  out.rejected = stats.rejected;
  out.availability = out.requests == 0
                         ? 1.0
                         : static_cast<double>(out.responses_ok) /
                               static_cast<double>(out.requests);
  out.cold_starts = stats.cold_starts;
  out.replicas_started = stats.replicas_started;
  out.restore_fallbacks = stats.restore_fallbacks;
  out.restore_retries = stats.restore_retries;
  out.snapshot_quarantines = stats.snapshot_quarantines;
  out.snapshot_rebakes = stats.snapshot_rebakes;
  out.node_crashes = stats.node_crashes;
  out.node_recoveries = stats.node_recoveries;
  out.requests_requeued = stats.requests_requeued;
  out.fallback_rate = stats.replicas_started == 0
                          ? 0.0
                          : static_cast<double>(stats.restore_fallbacks) /
                                static_cast<double>(stats.replicas_started);

  const faas::RequestAggregate& agg = platform.request_aggregate();
  out.total_p50_ms = agg.total_ms.percentile(0.50);
  out.total_p95_ms = agg.total_ms.percentile(0.95);
  out.total_p99_ms = agg.total_ms.percentile(0.99);
  out.cold_startup_p50_ms = agg.cold_startup_ms.percentile(0.50);
  out.cold_startup_p95_ms = agg.cold_startup_ms.percentile(0.95);

  const faults::Injector& inj = kernel.faults();
  out.faults_injected = inj.total_fired();
  for (std::size_t s = 0; s < faults::kFaultSiteCount; ++s) {
    const auto site = static_cast<faults::FaultSite>(s);
    out.fired_by_site.emplace_back(faults::fault_site_name(site),
                                   inj.fired(site));
  }
  out.fault_trace = inj.trace();
  for (const auto& [fn, health] : platform.snapshot_health())
    out.snapshot_health.push_back({fn, health.consecutive_failures,
                                   health.quarantined, health.rebakes});

  root.attr("faults_injected", out.faults_injected);
  root.end();
  if (trace != nullptr) {
    trace->absorb(tr);
    trace->finalize();
  }
  return out;
}

ChaosScenarioResult run_chaos_scenario(const ChaosScenarioConfig& config) {
  return run(ScenarioSpec::from(config)).chaos;
}

}  // namespace prebake::exp
