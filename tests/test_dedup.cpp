// Content-addressed sharing across snapshots, measured on the node page
// store (DESIGN.md §6f): identical page contents are stored once, so
// replicas of different functions share their runtime base pages.
#include <gtest/gtest.h>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "exp/calibration.hpp"
#include "faas/builder.hpp"

namespace prebake::criu {
namespace {

class DedupTest : public ::testing::Test {
 protected:
  DedupTest()
      : kernel_{sim_, exp::testbed_costs()},
        startup_{kernel_, exp::testbed_runtime(), assets_},
        builder_{kernel_, startup_} {}

  core::BakedSnapshot bake(const rt::FunctionSpec& spec,
                           core::SnapshotPolicy policy, std::uint64_t seed) {
    core::PrebakeConfig cfg;
    cfg.policy = policy;
    cfg.store_root = "/snapshots/" + std::to_string(seed) + "/";
    faas::BuildResult built = builder_.build(spec, cfg, sim::Rng{seed});
    return std::move(*built.snapshot);
  }

  static std::span<const std::uint64_t> digests(
      const core::BakedSnapshot& snap) {
    return snap.images.decoded().pages->digests();
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  funcs::SharedAssets assets_;
  core::StartupService startup_;
  faas::FunctionBuilder builder_;
};

TEST_F(DedupTest, EmptyIndexStats) {
  const PageStore store;
  EXPECT_EQ(store.stored_pages(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_FALSE(store.contains(123));
  EXPECT_EQ(store.refcount(123), 0u);
}

TEST_F(DedupTest, FirstSnapshotIsAllFresh) {
  PageStore store;
  const auto snap = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  EXPECT_EQ(store.insert(digests(snap)), snap.stats.pages_dumped);
  EXPECT_EQ(store.stored_pages(), digests(snap).size());
}

TEST_F(DedupTest, IdenticalRebakeDedupsCompletely) {
  PageStore store;
  const auto a = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  const auto b = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 2);
  store.insert(digests(a));
  const std::uint64_t fresh = store.insert(digests(b));
  // Re-bakes of the same function share everything except per-process state
  // (the stack and the tiny demand-paged text prefix differ by pid).
  EXPECT_LT(fresh, 300u);
  const double ratio =
      static_cast<double>(digests(a).size() + digests(b).size()) /
      static_cast<double>(store.stored_pages());
  EXPECT_GT(ratio, 1.85);
}

TEST_F(DedupTest, RuntimeBaseSharedAcrossFunctions) {
  PageStore store;
  const auto noop = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  store.insert(digests(noop));
  const auto md =
      bake(exp::markdown_spec(), core::SnapshotPolicy::no_warmup(), 2);
  const std::uint64_t fresh = store.insert(digests(md));
  // The JVM base (heap + metaspace after bootstrap) dedups away; only the
  // markdown-specific state is new.
  EXPECT_LT(fresh, md.stats.pages_dumped / 3);
  EXPECT_GT(fresh, 0u);
}

TEST_F(DedupTest, WarmSnapshotSharesColdBase) {
  PageStore store;
  const auto cold = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  store.insert(digests(cold));
  const auto warm = bake(exp::noop_spec(), core::SnapshotPolicy::warmup(1), 2);
  const std::uint64_t fresh = store.insert(digests(warm));
  // Warm-up only adds lazy metaspace + code cache pages.
  EXPECT_LT(fresh, warm.stats.pages_dumped / 4);
}

TEST_F(DedupTest, RefcountsTrackSharing) {
  // Two templates over one snapshot pin each of its pages twice.
  PageStore store;
  const auto a = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  store.pin(digests(a));
  store.pin(digests(a));
  ASSERT_FALSE(digests(a).empty());
  EXPECT_EQ(store.refcount(digests(a).front()), 2u);
}

}  // namespace
}  // namespace prebake::criu
