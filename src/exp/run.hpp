// Unified scenario entry point: every experiment the repo can run —
// startup repetitions (Figures 3-6), the multi-node cluster workload, and
// the fault-injected chaos workload — goes through exp::run(ScenarioSpec).
// The legacy free functions (run_startup_scenario, run_cluster_scenario,
// run_chaos_scenario) are one-line wrappers over this entry point.
//
// A ScenarioSpec carries the scenario kind, the knobs shared by every kind
// (seed, repetitions, threads), and the kind-specific config. The shared
// fields are authoritative: run() copies them into the selected config, so
// sweeping seeds or repetition counts never needs to know which kind is
// being run.
//
// Setting `trace` captures a deterministic obs::TraceReport of the run
// (spans + counters/histograms) into ScenarioRun::trace — see DESIGN.md
// §6e. Tracing never perturbs simulated results.
#pragma once

#include "exp/chaos.hpp"
#include "exp/cluster.hpp"
#include "exp/migration.hpp"
#include "exp/scale.hpp"
#include "exp/scenario.hpp"
#include "faas/trace_source.hpp"
#include "obs/report.hpp"

namespace prebake::exp {

enum class ScenarioKind { kStartup, kCluster, kChaos, kScale, kMigration };

const char* scenario_kind_name(ScenarioKind kind);

struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kStartup;

  // Shared knobs, written into the selected config by run(). repetitions
  // and threads only shape the startup kind (cluster/chaos drive load by
  // duration x rate on one simulation); seed applies to every kind.
  std::uint64_t seed = 42;
  int repetitions = 200;
  int threads = 0;
  // Capture a trace of the run into ScenarioRun::trace.
  bool trace = false;

  // Kind-specific configs; only the one matching `kind` is consulted.
  ScenarioConfig startup;
  ClusterScenarioConfig cluster;
  ChaosScenarioConfig chaos;
  ScaleScenarioConfig scale;
  MigrationScenarioConfig migration;

  // Lift a legacy config into a spec (shared fields mirrored out).
  static ScenarioSpec from(const ScenarioConfig& config);
  static ScenarioSpec from(const ClusterScenarioConfig& config);
  static ScenarioSpec from(const ChaosScenarioConfig& config);
  static ScenarioSpec from(const ScaleScenarioConfig& config);
  static ScenarioSpec from(const MigrationScenarioConfig& config);
};

struct ScenarioRun {
  ScenarioKind kind = ScenarioKind::kStartup;
  // Only the member matching `kind` is populated.
  ScenarioResult startup;
  ClusterScenarioResult cluster;
  ChaosScenarioResult chaos;
  ScaleScenarioResult scale;
  MigrationScenarioResult migration;
  // Populated (and finalized) when the spec asked for tracing.
  obs::TraceReport trace;
};

ScenarioRun run(const ScenarioSpec& spec);

namespace detail {
// The real runners. `trace` is nullptr when tracing is off; otherwise the
// impl absorbs every testbed tracer into it and finalizes.
ScenarioResult run_startup_impl(const ScenarioConfig& config,
                                obs::TraceReport* trace);
ClusterScenarioResult run_cluster_impl(const ClusterScenarioConfig& config,
                                       obs::TraceReport* trace);
ChaosScenarioResult run_chaos_impl(const ChaosScenarioConfig& config,
                                   obs::TraceReport* trace);
ScaleScenarioResult run_scale_impl(const ScaleScenarioConfig& config,
                                   obs::TraceReport* trace);
MigrationScenarioResult run_migration_impl(const MigrationScenarioConfig& config,
                                           obs::TraceReport* trace);

// The cluster-style workload: an independent Poisson stream at `rate_hz`
// per function over `duration` (function f draws from Rng{seed}.child(f+1)),
// merged and replayed from the current simulation time; then the
// simulation is pumped to the end of the window.
faas::StreamReplayResult replay_poisson_window(
    faas::Platform& platform, const std::vector<std::string>& functions,
    double rate_hz, sim::Duration duration, std::uint64_t seed);
}  // namespace detail

}  // namespace prebake::exp
