#include "exp/run.hpp"

#include <memory>
#include <stdexcept>

namespace prebake::exp {

const char* scenario_kind_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kStartup: return "startup";
    case ScenarioKind::kCluster: return "cluster";
    case ScenarioKind::kChaos: return "chaos";
    case ScenarioKind::kScale: return "scale";
    case ScenarioKind::kMigration: return "migration";
  }
  throw std::invalid_argument{"scenario_kind_name: bad kind"};
}

ScenarioSpec ScenarioSpec::from(const ScenarioConfig& config) {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kStartup;
  spec.seed = config.seed;
  spec.repetitions = config.repetitions;
  spec.threads = config.threads;
  spec.startup = config;
  return spec;
}

ScenarioSpec ScenarioSpec::from(const ClusterScenarioConfig& config) {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kCluster;
  spec.seed = config.seed;
  spec.cluster = config;
  return spec;
}

ScenarioSpec ScenarioSpec::from(const ChaosScenarioConfig& config) {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kChaos;
  spec.seed = config.seed;
  spec.chaos = config;
  return spec;
}

ScenarioSpec ScenarioSpec::from(const ScaleScenarioConfig& config) {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kScale;
  spec.seed = config.seed;
  spec.threads = config.threads;
  spec.scale = config;
  return spec;
}

ScenarioSpec ScenarioSpec::from(const MigrationScenarioConfig& config) {
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kMigration;
  spec.seed = config.seed;
  spec.migration = config;
  return spec;
}

ScenarioRun run(const ScenarioSpec& spec) {
  ScenarioRun out;
  out.kind = spec.kind;
  obs::TraceReport* trace = spec.trace ? &out.trace : nullptr;
  switch (spec.kind) {
    case ScenarioKind::kStartup: {
      ScenarioConfig cfg = spec.startup;
      cfg.seed = spec.seed;
      cfg.repetitions = spec.repetitions;
      cfg.threads = spec.threads;
      out.startup = detail::run_startup_impl(cfg, trace);
      return out;
    }
    case ScenarioKind::kCluster: {
      ClusterScenarioConfig cfg = spec.cluster;
      cfg.seed = spec.seed;
      out.cluster = detail::run_cluster_impl(cfg, trace);
      return out;
    }
    case ScenarioKind::kChaos: {
      ChaosScenarioConfig cfg = spec.chaos;
      cfg.seed = spec.seed;
      out.chaos = detail::run_chaos_impl(cfg, trace);
      return out;
    }
    case ScenarioKind::kScale: {
      ScaleScenarioConfig cfg = spec.scale;
      cfg.seed = spec.seed;
      cfg.threads = spec.threads;
      out.scale = detail::run_scale_impl(cfg, trace);
      return out;
    }
    case ScenarioKind::kMigration: {
      MigrationScenarioConfig cfg = spec.migration;
      cfg.seed = spec.seed;
      out.migration = detail::run_migration_impl(cfg, trace);
      return out;
    }
  }
  throw std::invalid_argument{"exp::run: bad scenario kind"};
}

faas::StreamReplayResult detail::replay_poisson_window(
    faas::Platform& platform, const std::vector<std::string>& functions,
    double rate_hz, sim::Duration duration, std::uint64_t seed) {
  const sim::Rng rng{seed};
  std::vector<std::unique_ptr<faas::TraceSource>> streams;
  for (std::size_t f = 0; f < functions.size(); ++f)
    streams.push_back(std::make_unique<faas::PoissonTraceSource>(
        functions[f], rate_hz, duration, rng.child(f + 1)));
  faas::MergedTraceSource arrivals{std::move(streams)};

  sim::Simulation& sim = platform.kernel().sim();
  const sim::TimePoint end = sim.now() + duration;
  faas::StreamReplayResult rep = faas::replay_trace_stream(platform, arrivals);
  while (sim.now() < end && sim.step()) {
  }
  return rep;
}

}  // namespace prebake::exp
