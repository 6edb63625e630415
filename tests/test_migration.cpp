// Live replica migration via pre-dump chains (DESIGN.md §6i): platform-level
// orchestration, chain robustness at the CRIU layer, and the end-to-end
// scenario claims (warm evacuation loses nothing, blackout beats a cold
// re-restore, faults degrade the migration but never the service).
#include <gtest/gtest.h>

#include "criu/dump.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/migration.hpp"
#include "faas/platform.hpp"

namespace prebake::faas {
namespace {

constexpr std::uint64_t GiB = 1024ull * 1024 * 1024;

// --- platform orchestration ------------------------------------------------

class MigrationPlatformTest : public ::testing::Test {
 protected:
  MigrationPlatformTest() : kernel_{sim_, exp::testbed_costs()} {}

  // Built lazily so each test can tweak the config first.
  Platform& platform(std::uint32_t nodes = 2) {
    if (!platform_) {
      platform_ = std::make_unique<Platform>(kernel_, exp::testbed_runtime(),
                                             config_, 99);
      for (std::uint32_t i = 0; i < nodes; ++i)
        platform_->resources().add_node("w" + std::to_string(i), 8 * GiB, 2);
    }
    return *platform_;
  }

  // Deploy the noop function prebaked and realize one warm replica.
  void warm_one() {
    platform().deploy(exp::noop_spec(), StartMode::kPrebaked,
                      core::SnapshotPolicy::warmup(1));
    platform().scale_up("noop", 1);
    while (platform().idle_replica_count("noop") == 0 && kernel_.sim().step()) {
    }
    ASSERT_EQ(platform().idle_replica_count("noop"), 1u);
  }

  // Run long enough for any in-flight migration to resolve, but not so long
  // that the idle timeout reclaims the replica under the assertions.
  void pump_for(sim::Duration d = sim::Duration::seconds(30)) {
    kernel_.sim().run_until(kernel_.sim().now() + d);
  }

  funcs::Response invoke_sync(const std::string& fn) {
    funcs::Response out;
    bool done = false;
    platform().invoke(fn, funcs::sample_request("noop"),
                      [&](const funcs::Response& res, const RequestMetrics&) {
                        out = res;
                        done = true;
                      });
    while (!done && kernel_.sim().step()) {
    }
    EXPECT_TRUE(done);
    return out;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  PlatformConfig config_;
  std::unique_ptr<Platform> platform_;
};

TEST_F(MigrationPlatformTest, LiveMigrationMovesWarmReplica) {
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  ASSERT_NE(source, kNoNode);

  ASSERT_TRUE(platform().migrate_replica("noop"));
  pump_for();

  EXPECT_EQ(platform().stats().migrations_started, 1u);
  EXPECT_EQ(platform().stats().migrations_completed, 1u);
  EXPECT_EQ(platform().stats().migrations_aborted, 0u);
  const NodeId dest = platform().find_replica_node("noop");
  ASSERT_NE(dest, kNoNode);
  EXPECT_NE(dest, source);
  EXPECT_EQ(platform().idle_replica_count("noop"), 1u);

  const NodeStats& src_stats = platform().resources().node(source).stats();
  const NodeStats& dst_stats = platform().resources().node(dest).stats();
  EXPECT_EQ(src_stats.migrations_out, 1u);
  EXPECT_EQ(src_stats.warmth_replicas_migrated, 1u);
  EXPECT_EQ(src_stats.warmth_replicas_destroyed, 0u);
  EXPECT_EQ(dst_stats.migrations_in, 1u);

  // The moved replica is the same warm process state: serving through it is
  // not a cold start.
  EXPECT_TRUE(invoke_sync("noop").ok());
  EXPECT_EQ(platform().stats().cold_starts, 0u);
}

TEST_F(MigrationPlatformTest, MigrateToExplicitDestination) {
  platform(3);
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  // Pick the highest node id as an explicit target: never the default pick.
  const NodeId target = 2;
  ASSERT_NE(source, target);
  ASSERT_TRUE(platform().migrate_replica("noop", kNoNode, target));
  pump_for();
  EXPECT_EQ(platform().stats().migrations_completed, 1u);
  EXPECT_EQ(platform().find_replica_node("noop"), target);
}

TEST_F(MigrationPlatformTest, MigrationChargesDowntimeBelowFullRestore) {
  warm_one();
  ASSERT_TRUE(platform().migrate_replica("noop"));
  pump_for();
  ASSERT_EQ(platform().stats().migrations_completed, 1u);
  // The cutover blackout pays the final delta + standby resume, never the
  // whole footprint: milliseconds against the ~190 ms registry re-restore.
  const double blackout_ms = platform().stats().migration_downtime.to_millis();
  EXPECT_GT(blackout_ms, 0.0);
  EXPECT_LT(blackout_ms, 50.0);
  EXPECT_GT(platform().stats().migration_precopy_bytes,
            platform().stats().migration_final_bytes);
}

TEST_F(MigrationPlatformTest, DrainReclaimDestroysWarmth) {
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  platform().drain_node(source, Platform::DrainMode::kReclaim);
  pump_for();
  EXPECT_EQ(platform().replica_count("noop"), 0u);
  const NodeStats& stats = platform().resources().node(source).stats();
  EXPECT_EQ(stats.warmth_replicas_destroyed, 1u);
  EXPECT_EQ(stats.warmth_replicas_migrated, 0u);
}

TEST_F(MigrationPlatformTest, DrainMigrateWarmEvacuatesWarmth) {
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  platform().drain_node(source, Platform::DrainMode::kMigrateWarm);
  pump_for();
  EXPECT_EQ(platform().stats().migrations_completed, 1u);
  EXPECT_EQ(platform().idle_replica_count("noop"), 1u);
  EXPECT_NE(platform().find_replica_node("noop"), source);
  const NodeStats& stats = platform().resources().node(source).stats();
  EXPECT_EQ(stats.warmth_replicas_migrated, 1u);
  EXPECT_EQ(stats.warmth_replicas_destroyed, 0u);
}

TEST_F(MigrationPlatformTest, RebalanceShedsIdleReplicaFromHotNode) {
  // Watermark 0: every schedulable node with an idle replica is "hot", so
  // rebalance must shed exactly the one idle replica we have.
  config_.rebalance_high_watermark = 0.0;
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  EXPECT_EQ(platform().rebalance(), 1u);
  pump_for();
  EXPECT_EQ(platform().stats().rebalance_moves, 1u);
  EXPECT_EQ(platform().stats().migrations_completed, 1u);
  EXPECT_NE(platform().find_replica_node("noop"), source);
}

TEST_F(MigrationPlatformTest, SourceCrashMidPreDumpAbortsToLocal) {
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  faults::FaultPlan plan;
  plan.migration_dump_fault_rate = 1.0;
  kernel_.faults().configure(plan);

  ASSERT_TRUE(platform().migrate_replica("noop"));
  pump_for();

  EXPECT_EQ(platform().stats().migrations_aborted, 1u);
  EXPECT_EQ(platform().stats().migrations_completed, 0u);
  // Abort-to-local: the replica never left and keeps serving warm.
  EXPECT_EQ(platform().find_replica_node("noop"), source);
  EXPECT_EQ(platform().idle_replica_count("noop"), 1u);
  EXPECT_TRUE(invoke_sync("noop").ok());
  EXPECT_EQ(platform().stats().cold_starts, 0u);
  const NodeStats& stats = platform().resources().node(source).stats();
  EXPECT_EQ(stats.migrations_aborted, 1u);
}

TEST_F(MigrationPlatformTest, CorruptEveryLinkExhaustsFinalAttemptsAndAborts) {
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  faults::FaultPlan plan;
  plan.migration_link_corrupt_rate = 1.0;
  kernel_.faults().configure(plan);

  ASSERT_TRUE(platform().migrate_replica("noop"));
  pump_for();

  // The corrupt pre-copy link degrades the chain to a full dump; with every
  // shipment corrupt the bounded final attempts then abort back to local.
  EXPECT_GE(platform().stats().migration_full_dumps, 1u);
  EXPECT_EQ(platform().stats().migrations_aborted, 1u);
  EXPECT_EQ(platform().find_replica_node("noop"), source);
  EXPECT_TRUE(invoke_sync("noop").ok());
  EXPECT_EQ(platform().stats().cold_starts, 0u);
}

TEST_F(MigrationPlatformTest, DestinationCrashRetriesOnAnotherNode) {
  config_.node_recovery_delay = sim::Duration::seconds(30);
  platform(3);
  warm_one();
  const NodeId source = platform().find_replica_node("noop");
  // The node-crash site fires on its first draw only: the first cutover
  // destination dies mid-restore; the retry elsewhere restores clean.
  faults::FaultPlan plan;
  plan.node_crash_rate = 0.5;
  plan.seed = 7;
  kernel_.faults().configure(plan);
  const bool first_draw_fires = [&] {
    faults::Injector probe;
    probe.configure(plan);
    return probe.fires(faults::FaultSite::kNodeCrash);
  }();
  ASSERT_TRUE(first_draw_fires) << "pick a seed whose first draw fires";

  ASSERT_TRUE(platform().migrate_replica("noop"));
  pump_for();

  EXPECT_GE(platform().stats().migration_dest_retries, 1u);
  if (platform().stats().migrations_completed == 1u) {
    const NodeId final_node = platform().find_replica_node("noop");
    EXPECT_NE(final_node, source);
    EXPECT_EQ(platform().idle_replica_count("noop"), 1u);
  } else {
    // Every alternative destination also crashed: abort back to local is
    // the only acceptable degradation.
    EXPECT_EQ(platform().stats().migrations_aborted, 1u);
    EXPECT_EQ(platform().find_replica_node("noop"), source);
  }
  EXPECT_TRUE(invoke_sync("noop").ok());
}

TEST_F(MigrationPlatformTest, HealthEwmaTriggersEvacuation) {
  // Every prebaked start fails its image reads and falls back: the node
  // health EWMA (alpha 0.2) crosses 0.3 on the second failing start.
  config_.evacuation_threshold = 0.3;
  config_.evacuation_cooldown = sim::Duration::seconds(5);
  warm_one();  // clean start: EWMA stays 0, no evacuation yet
  EXPECT_EQ(platform().stats().evacuations, 0u);

  faults::FaultPlan plan;
  plan.image_read_error_rate = 1.0;
  kernel_.faults().configure(plan);
  // A burst of failing starts: whichever node eats the second one crosses
  // the threshold (0.2 then 0.36) and evacuates.
  platform().scale_up("noop", 6);
  pump_for();

  EXPECT_GE(platform().stats().restore_fallbacks, 2u);
  EXPECT_GE(platform().stats().evacuations, 1u);
  EXPECT_GE(platform().stats().migrations_started, 1u);
}

// --- pre-dump chain robustness (CRIU layer) --------------------------------

class MigrationChainTest : public ::testing::Test {
 protected:
  MigrationChainTest() : kernel_{sim_} {
    kernel_.fs().create("/bin/app", 2 * 1024 * 1024);
  }

  os::Pid make_target() {
    const os::Pid pid = kernel_.clone_process(os::kNoPid);
    kernel_.exec(pid, "/bin/app", {"/bin/app", "--fn"});
    heap_ = kernel_.mmap(pid, os::kPageSize * 64, os::Prot::kReadWrite,
                         os::VmaKind::kAnon, "[big-heap]",
                         std::make_shared<os::PatternSource>(0xFEED), false);
    kernel_.fault_in(pid, heap_, 0, 48);
    return pid;
  }

  void dirty(os::Pid pid, std::uint64_t first, std::uint64_t pages) {
    kernel_.process(pid).mm().touch(heap_, first, pages, /*write=*/true);
  }

  // Depth-3 chain: base pre-dump, two incremental pre-dumps, final dump —
  // the shape a 3-round live migration ships.
  std::vector<criu::DumpResult> make_chain(os::Pid pid) {
    std::vector<criu::DumpResult> links;
    criu::DumpOptions base;
    base.pre_dump = true;
    links.push_back(criu::Dumper{kernel_}.dump(pid, base));

    dirty(pid, 0, 4);
    criu::DumpOptions mid;
    mid.pre_dump = true;
    const criu::ImageDir* chain1[] = {&links[0].images};
    mid.parent_chain = chain1;
    links.push_back(criu::Dumper{kernel_}.dump(pid, mid));

    dirty(pid, 8, 4);
    criu::DumpOptions last;
    last.leave_running = true;
    const criu::ImageDir* chain2[] = {&links[0].images, &links[1].images};
    last.parent_chain = chain2;
    links.push_back(criu::Dumper{kernel_}.dump(pid, last));
    return links;
  }

  static criu::ImageDir copy_truncated(const criu::ImageDir& src,
                                       const std::string& victim) {
    criu::ImageDir out;
    for (const std::string& name : src.names()) {
      const criu::ImageDir::ImageFile& f = src.get(name);
      std::vector<std::uint8_t> bytes = f.bytes;
      if (name == victim) bytes.resize(bytes.size() / 2);
      out.put(name, std::move(bytes), f.nominal_size);
    }
    return out;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  os::VmaId heap_ = 0;
};

TEST_F(MigrationChainTest, ChainLinksUnionParentCoverage) {
  const os::Pid pid = make_target();
  const std::vector<criu::DumpResult> links = make_chain(pid);
  // The base link holds the full resident set; each later link only its
  // round's dirty delta — the whole point of --prev-images-dir chains.
  EXPECT_GE(links[0].stats.pages_dumped, 48u);
  EXPECT_EQ(links[1].stats.pages_dumped, 4u);
  // Without the union over *all* parents the final dump would re-dump the
  // 44+ pages only the base link covers.
  EXPECT_EQ(links[2].stats.pages_dumped, 4u);
}

TEST_F(MigrationChainTest, CorruptParentLinkErrorNamesChainDepth) {
  const os::Pid pid = make_target();
  const std::vector<criu::DumpResult> links = make_chain(pid);
  // Flip a byte in the *middle* parent link (depth 1 counting back from the
  // final dump): the typed error must attribute the failure to that link.
  criu::ImageDir flipped;
  for (const std::string& name : links[1].images.names()) {
    const criu::ImageDir::ImageFile& f = links[1].images.get(name);
    std::vector<std::uint8_t> bytes = f.bytes;
    if (name == "pagemap.img") bytes[bytes.size() / 2] ^= 0x40;
    flipped.put(name, std::move(bytes), f.nominal_size);
  }
  // Shipped links live in destination memory: no per-link prefix.
  const criu::ImageLink lower[] = {{&links[0].images, "", ""},
                                   {&flipped, "", ""}};
  try {
    criu::Restorer{kernel_}.restore(links[2].images, {}, lower);
    FAIL() << "restore accepted a corrupt parent link";
  } catch (const criu::RestoreError& e) {
    EXPECT_EQ(e.kind(), criu::RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);
    EXPECT_NE(std::string{e.what()}.find("chain link 1"), std::string::npos);
  }
}

TEST_F(MigrationChainTest, TruncatedParentLinkErrorNamesChainDepth) {
  const os::Pid pid = make_target();
  const std::vector<criu::DumpResult> links = make_chain(pid);
  // Truncate the *base* link's payload (depth 2): a half-shipped pre-copy
  // link must be rejected whole and attributed, not silently under-restore.
  const criu::ImageDir cut = copy_truncated(links[0].images, "pages-1.img");
  const criu::ImageLink lower[] = {{&cut, "", ""}, {&links[1].images, "", ""}};
  try {
    criu::Restorer{kernel_}.restore(links[2].images, {}, lower);
    FAIL() << "restore accepted a truncated parent link";
  } catch (const criu::RestoreError& e) {
    EXPECT_EQ(e.kind(), criu::RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 2);
    EXPECT_NE(std::string{e.what()}.find("chain link 2"), std::string::npos);
  }
  // The intact chain still restores.
  const criu::ImageLink good[] = {{&links[0].images, "", ""},
                                  {&links[1].images, "", ""}};
  EXPECT_NO_THROW(criu::Restorer{kernel_}.restore(links[2].images, {}, good));
}

// --- end-to-end scenario ---------------------------------------------------

exp::MigrationScenarioConfig scenario_config() {
  exp::MigrationScenarioConfig cfg;
  // Short run keeps the suite fast; the bench sweeps the full durations.
  cfg.duration = sim::Duration::seconds(30);
  cfg.migrate_at = sim::Duration::seconds(10);
  return cfg;
}

TEST(MigrationScenarioTest, WarmDrainLosesNothing) {
  const exp::MigrationScenarioConfig cfg = scenario_config();
  const exp::MigrationScenarioResult res = exp::run_migration_scenario(cfg);
  EXPECT_GT(res.requests, 0u);
  EXPECT_EQ(res.answered, res.requests);
  EXPECT_EQ(res.responses_ok, res.requests);
  EXPECT_EQ(res.rejected, 0u);
  EXPECT_DOUBLE_EQ(res.availability, 1.0);
  EXPECT_GE(res.migrations_completed, 1u);
  EXPECT_GE(res.warmth_replicas_migrated, 1u);
  EXPECT_EQ(res.warmth_replicas_destroyed, 0u);
  EXPECT_EQ(res.cold_starts, 0u);
  ASSERT_NE(res.source_node, kNoNode);
  ASSERT_NE(res.final_node, kNoNode);
  EXPECT_NE(res.final_node, res.source_node);
}

TEST(MigrationScenarioTest, DowntimeBeatsColdRestore) {
  const exp::MigrationScenarioResult res =
      exp::run_migration_scenario(scenario_config());
  ASSERT_GE(res.migrations_completed, 1u);
  EXPECT_GT(res.downtime_ms, 0.0);
  EXPECT_GT(res.cold_restore_ms, 0.0);
  // The ISSUE gate: read-heavy live migration blacks out for well under 30%
  // of what destroying the replica and cold re-restoring would cost.
  EXPECT_LT(res.downtime_ms, 0.3 * res.cold_restore_ms);
}

TEST(MigrationScenarioTest, DowntimeGrowsWithDirtyRate) {
  exp::MigrationScenarioConfig cfg = scenario_config();
  cfg.migration.max_rounds = 1;  // one pre-copy round isolates the knob
  cfg.request_dirty_pages = 0;
  const exp::MigrationScenarioResult readonly =
      exp::run_migration_scenario(cfg);
  cfg.request_dirty_pages = 256;
  const exp::MigrationScenarioResult dirty = exp::run_migration_scenario(cfg);
  ASSERT_GE(readonly.migrations_completed, 1u);
  ASSERT_GE(dirty.migrations_completed, 1u);
  EXPECT_GT(dirty.migration_final_bytes, readonly.migration_final_bytes);
  EXPECT_GT(dirty.downtime_ms, readonly.downtime_ms);
}

TEST(MigrationScenarioTest, StopAndCopyPaysFullRestoreInBlackout) {
  exp::MigrationScenarioConfig cfg = scenario_config();
  const exp::MigrationScenarioResult live = exp::run_migration_scenario(cfg);
  cfg.migration.max_rounds = 0;  // no pre-copy: the comparison baseline
  const exp::MigrationScenarioResult stop = exp::run_migration_scenario(cfg);
  ASSERT_GE(live.migrations_completed, 1u);
  ASSERT_GE(stop.migrations_completed, 1u);
  EXPECT_EQ(stop.migration_rounds, 0u);
  // Stop-and-copy has no standby: its blackout carries the full transfer
  // and restore that pre-copy pays while still serving.
  EXPECT_GT(stop.downtime_ms, 3.0 * live.downtime_ms);
  EXPECT_EQ(stop.answered, stop.requests);
}

TEST(MigrationScenarioTest, DeepChainNegotiatesDeltasUnderRegistryStalls) {
  exp::MigrationScenarioConfig cfg = scenario_config();
  // Force a chain deeper than 2 links and keep the faulty registry busy:
  // per-link delta negotiation must still converge the chain.
  cfg.migration.max_rounds = 4;
  cfg.migration.convergence_pages = 0;
  cfg.request_dirty_pages = 64;
  cfg.faults.registry_stall_rate = 1.0;
  cfg.faults.registry_stall = sim::Duration::millis(20);
  const exp::MigrationScenarioResult res = exp::run_migration_scenario(cfg);
  ASSERT_GE(res.migrations_completed, 1u);
  EXPECT_GT(res.migration_rounds, 2u);
  EXPECT_EQ(res.answered, res.requests);
  EXPECT_EQ(res.rejected, 0u);
  // Pre-copy carries the bulk; the final delta is orders smaller.
  EXPECT_GT(res.migration_precopy_bytes, 10u * res.migration_final_bytes);
}

TEST(MigrationScenarioTest, SourceCrashDegradesMigrationNotService) {
  exp::MigrationScenarioConfig cfg = scenario_config();
  // Targeted move (not a drain): the abort leaves the replica serving on a
  // fully schedulable source, so a doomed migration costs zero requests.
  cfg.drain_source = false;
  cfg.faults.migration_dump_fault_rate = 1.0;
  const exp::MigrationScenarioResult res = exp::run_migration_scenario(cfg);
  EXPECT_GE(res.migrations_aborted, 1u);
  EXPECT_EQ(res.migrations_completed, 0u);
  // The robustness claim: a failed migration costs zero requests.
  EXPECT_EQ(res.answered, res.requests);
  EXPECT_EQ(res.rejected, 0u);
  EXPECT_DOUBLE_EQ(res.availability, 1.0);
}

TEST(MigrationScenarioTest, DeterministicAcrossRuns) {
  const exp::MigrationScenarioConfig cfg = scenario_config();
  const exp::MigrationScenarioResult a = exp::run_migration_scenario(cfg);
  const exp::MigrationScenarioResult b = exp::run_migration_scenario(cfg);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.answered, b.answered);
  EXPECT_EQ(a.migration_rounds, b.migration_rounds);
  EXPECT_EQ(a.migration_precopy_bytes, b.migration_precopy_bytes);
  EXPECT_EQ(a.migration_final_bytes, b.migration_final_bytes);
  EXPECT_DOUBLE_EQ(a.downtime_ms, b.downtime_ms);
  EXPECT_DOUBLE_EQ(a.total_p95_ms, b.total_p95_ms);
}

}  // namespace
}  // namespace prebake::faas
