// Layered base+delta snapshots (DESIGN.md §6k): the layers-1.img manifest
// format, split dumps against a base runtime snapshot, layered restore in all
// its paths (full chain replay, base-template clone + delta replay, function
// template), damage attribution by chain link, base-template eviction, and
// the composition with working-set prefetch.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/parallel_runner.hpp"
#include "faas/builder.hpp"
#include "faas/platform.hpp"

namespace prebake::criu {
namespace {

// --- layers-1.img format ---------------------------------------------------

TEST(LayerImage, ManifestRoundTrip) {
  LayerManifest m;
  m.layers = {LayerRef{"rt-base-java8", 0x1234abcdULL, 3000},
              LayerRef{"fn-alpha", 0, 220}};
  m.shared_pages = 2780;
  const std::vector<std::uint8_t> bytes = encode_layers(m);
  EXPECT_EQ(decode_layers(bytes), m);
}

TEST(LayerImage, EmptyChainRejected) {
  // A manifest naming no layers is never legal (the delta always names at
  // least itself); the decoder rejects it rather than round-tripping it.
  EXPECT_THROW(decode_layers(encode_layers(LayerManifest{})), RestoreError);
}

TEST(LayerImage, TruncatedBytesThrowTyped) {
  LayerManifest m;
  m.layers = {LayerRef{"base", 7, 100}, LayerRef{"delta", 0, 10}};
  std::vector<std::uint8_t> bytes = encode_layers(m);
  bytes.resize(8);
  try {
    decode_layers(bytes);
    FAIL() << "decode_layers accepted a truncated image";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kTruncatedImage);
  }
}

TEST(LayerImage, CorruptBytesThrowTyped) {
  LayerManifest m;
  m.layers = {LayerRef{"base", 7, 100}, LayerRef{"delta", 0, 10}};
  std::vector<std::uint8_t> bytes = encode_layers(m);
  bytes[bytes.size() / 2] ^= 0xFF;
  try {
    decode_layers(bytes);
    FAIL() << "decode_layers accepted a corrupt image";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
  }
}

// --- split dump + layered restore ------------------------------------------

class LayerRestoreTest : public ::testing::Test {
 protected:
  LayerRestoreTest()
      : kernel_{sim_, exp::testbed_costs()},
        startup_{kernel_, exp::testbed_runtime(), assets_},
        builder_{kernel_, startup_} {}

  // A bare snapshot of the runtime alone: same binary, trivial handler.
  core::BakedSnapshot bake_base(std::uint64_t seed = 11) {
    rt::FunctionSpec spec;
    spec.name = "rt-base";
    spec.handler_id = "noop";
    spec.runtime_binary = exp::noop_spec().runtime_binary;
    return bake(spec, nullptr, seed);
  }

  core::BakedSnapshot bake(const rt::FunctionSpec& spec,
                           const core::BakedSnapshot* split_base,
                           std::uint64_t seed) {
    core::PrebakeConfig cfg;
    cfg.store_root = "/registry/" + std::to_string(seed) + "/";
    cfg.split_base = split_base;
    faas::BuildResult built = builder_.build(spec, cfg, sim::Rng{seed});
    return std::move(*built.snapshot);
  }

  // Copy an image directory with one file's bytes damaged in place.
  enum class Damage { kFlip, kTruncate };
  static ImageDir damaged(const ImageDir& src, const std::string& victim,
                          Damage how) {
    ImageDir out;
    for (const std::string& name : src.names()) {
      const ImageDir::ImageFile& f = src.get(name);
      std::vector<std::uint8_t> bytes = f.bytes;
      if (name == victim) {
        if (how == Damage::kFlip)
          bytes[bytes.size() / 2] ^= 0x40;
        else
          bytes.resize(bytes.size() / 2);
      }
      out.put(name, std::move(bytes), f.nominal_size);
    }
    return out;
  }

  // Content fingerprint of a restored process: thread registers plus every
  // resident page's digest. Deliberately excludes pids/tids so two restores
  // of the same snapshot compare equal even though they run as different
  // processes (the bench-side fingerprint can mix tids because it compares
  // across identically-seeded worlds).
  std::uint64_t fingerprint_contents(os::Pid pid) {
    const os::Process& proc = kernel_.process(pid);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    };
    for (const os::Thread& t : proc.threads())
      for (const std::uint64_t r : t.regs) mix(r);
    for (const os::Vma& vma : proc.mm().vmas()) {
      mix(vma.start);
      mix(vma.length);
      mix(static_cast<std::uint64_t>(vma.prot));
      mix(static_cast<std::uint64_t>(vma.kind));
      const std::uint64_t n = vma.page_count();
      for (std::uint64_t p = 0; p < n; ++p) {
        if (!vma.present[p]) continue;
        mix(p);
        mix(vma.source->page_digest(p));
      }
    }
    return h;
  }

  // Restore `top` (read from `top_prefix`) over one base link.
  RestoreResult restore_over(const ImageLink& base, const ImageDir& top,
                             const std::string& top_prefix,
                             RestoreOptions opts = {}) {
    opts.fs_prefix = top_prefix;
    const ImageLink lower[] = {base};
    return Restorer{kernel_}.restore(top, opts, lower);
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  funcs::SharedAssets assets_;
  core::StartupService startup_;
  faas::FunctionBuilder builder_;
};

TEST_F(LayerRestoreTest, SplitDumpEmitsDeltaPlusManifest) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot mono = bake(exp::markdown_spec(), nullptr, 2);
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);

  // The delta names its base chain and records the coverage.
  ASSERT_TRUE(delta.images.has(kLayersImageName));
  const LayerManifest m =
      decode_layers(delta.images.get(kLayersImageName).bytes);
  ASSERT_EQ(m.layers.size(), 2u);
  EXPECT_EQ(m.layers[0].content_digest, layer_digest(base.images));
  EXPECT_EQ(m.layers[1].content_digest, 0u);  // self
  EXPECT_EQ(m.shared_pages, delta.shared_with_base);
  EXPECT_GT(delta.shared_with_base, 0u);
  EXPECT_EQ(delta.base_function, base.function_name);
  EXPECT_EQ(delta.base_fs_prefix, base.fs_prefix);

  // The whole point: the runtime's pages stay in the base, the delta ships a
  // fraction of the monolithic payload.
  EXPECT_LT(delta.stats.payload_bytes, mono.stats.payload_bytes / 2);
  EXPECT_EQ(delta.stats.pages_dumped + delta.shared_with_base,
            mono.stats.pages_dumped);
}

TEST_F(LayerRestoreTest, FullChainReplayRestoresTheFunction) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const RestoreResult r = restore_over({&base.images, base.fs_prefix, ""},
                                      delta.images, delta.fs_prefix);
  EXPECT_NE(r.pid, os::kNoPid);
  EXPECT_GT(r.layer_shared_pages, 0u);
  EXPECT_EQ(r.layer_shared_pages, delta.shared_with_base);
  EXPECT_FALSE(r.base_template_clone);
  // All pages land: the base's resident set plus the delta's own pages.
  EXPECT_EQ(r.pages_restored,
            base.stats.pages_dumped + delta.stats.pages_dumped);
}

TEST_F(LayerRestoreTest, TemplatePathBitIdenticalToFullReplay) {
  // Every chain shape the restore takes must rebuild exactly the process a
  // plain full replay of base + delta builds.
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot f0 = bake(exp::markdown_spec(), &base, 3);
  rt::FunctionSpec spec2 = exp::markdown_spec();
  spec2.name = "markdown-2";
  spec2.memory_seed ^= 0x51ED;
  const core::BakedSnapshot f1 = bake(spec2, &base, 4);
  const ImageLink plain_base{&base.images, base.fs_prefix, ""};
  const ImageLink keyed_base{&base.images, base.fs_prefix, base.fs_prefix};

  // The reference: replay the whole chain, no store.
  std::map<const core::BakedSnapshot*, std::uint64_t> want;
  for (const core::BakedSnapshot* fn : {&f0, &f1})
    want[fn] = fingerprint_contents(
        restore_over(plain_base, fn->images, fn->fs_prefix).pid);

  PageStore store;
  const auto keyed = [&](const core::BakedSnapshot& fn) {
    RestoreOptions opts;
    opts.page_store = &store;
    opts.store_key = fn.fs_prefix;
    return restore_over(keyed_base, fn.images, fn.fs_prefix, opts);
  };
  // Working-set prefetch over the unkeyed chain, tail drained.
  ImageDir f0_ws = f0.images;
  os::VmaId heap = 0;
  for (const VmaEntry& e : f0_ws.decoded().vmas)
    if (e.name == "[jvm-heap]") heap = e.id;
  ASSERT_NE(heap, 0u);
  WorkingSetImage ws;
  ws.runs = {WsRun{heap, 0, 16}};
  ws.total_pages = 16;
  f0_ws.put(kWsImageName, encode_ws(ws));

  struct Shape {
    const char* name;
    const core::BakedSnapshot* fn;
    std::function<RestoreResult()> restore;
  };
  const Shape shapes[] = {
      {"layered full replay", &f0,
       [&] { return restore_over(plain_base, f0.images, f0.fs_prefix); }},
      {"base-template materialize", &f0,
       [&] {
         const RestoreResult r = keyed(f0);
         EXPECT_TRUE(r.base_template_materialized);
         EXPECT_TRUE(r.template_materialized);
         EXPECT_TRUE(store.has_template(base.fs_prefix));
         EXPECT_TRUE(store.has_template(f0.fs_prefix));
         EXPECT_EQ(store.template_dependents(base.fs_prefix), 1u);
         return r;
       }},
      {"base-template clone of a second function", &f1,
       [&] {
         const RestoreResult r = keyed(f1);
         EXPECT_TRUE(r.base_template_clone);
         return r;
       }},
      {"function-template clone", &f0,
       [&] {
         const RestoreResult r = keyed(f0);
         EXPECT_TRUE(r.template_clone);
         return r;
       }},
      {"layered ws_prefetch + page_in_all", &f0,
       [&] {
         RestoreOptions opts;
         opts.paging = PagingPolicy::ws_prefetch();
         const RestoreResult r =
             restore_over(plain_base, f0_ws, f0.fs_prefix, opts);
         EXPECT_EQ(r.ws_prefetched_pages, 16u);
         EXPECT_NE(r.lazy_server, nullptr);
         if (r.lazy_server != nullptr) r.lazy_server->page_in_all();
         return r;
       }},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const RestoreResult r = shape.restore();
    EXPECT_EQ(fingerprint_contents(r.pid), want.at(shape.fn));
  }
}

TEST_F(LayerRestoreTest, SecondFunctionClonesTheWarmBase) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot f0 = bake(exp::markdown_spec(), &base, 3);
  rt::FunctionSpec spec2 = exp::markdown_spec();
  spec2.name = "markdown-2";
  spec2.memory_seed ^= 0x51ED;
  const core::BakedSnapshot f1 = bake(spec2, &base, 4);

  PageStore store;
  RestoreOptions opts;
  opts.page_store = &store;
  opts.store_key = f0.fs_prefix;
  const ImageLink keyed_base{&base.images, base.fs_prefix, base.fs_prefix};
  const RestoreResult r0 =
      restore_over(keyed_base, f0.images, f0.fs_prefix, opts);
  EXPECT_TRUE(r0.base_template_materialized);
  EXPECT_FALSE(r0.base_template_clone);

  // A *different* function over the same base: no image read of the base, a
  // COW clone plus its own delta replay.
  opts.store_key = f1.fs_prefix;
  const RestoreResult r1 =
      restore_over(keyed_base, f1.images, f1.fs_prefix, opts);
  EXPECT_TRUE(r1.base_template_clone);
  EXPECT_FALSE(r1.base_template_materialized);
  EXPECT_GT(r1.delta_pages_restored, 0u);
  EXPECT_LT(r1.delta_pages_restored, r1.pages_restored);
  EXPECT_EQ(store.stats().base_template_clones, 1u);
  // Both functions' templates depend on the pinned base.
  EXPECT_EQ(store.template_dependents(base.fs_prefix), 2u);
}

TEST_F(LayerRestoreTest, CorruptBaseAttributedToItsChainDepth) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const ImageDir bad_base =
      damaged(base.images, "pages-1.img", Damage::kFlip);
  try {
    restore_over({&bad_base, base.fs_prefix, ""}, delta.images,
                 delta.fs_prefix);
    FAIL() << "restore accepted a corrupt base layer";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);  // base sits below the delta (link 0)
  }
}

TEST_F(LayerRestoreTest, TruncatedBaseAttributedToItsChainDepth) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const ImageDir cut = damaged(base.images, "pages-1.img", Damage::kTruncate);
  try {
    restore_over({&cut, base.fs_prefix, ""}, delta.images, delta.fs_prefix);
    FAIL() << "restore accepted a truncated base layer";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);
  }
}

TEST_F(LayerRestoreTest, CorruptDeltaAttributedToLinkZero) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  for (const Damage how : {Damage::kFlip, Damage::kTruncate}) {
    SCOPED_TRACE(how == Damage::kFlip ? "flip" : "truncate");
    const ImageDir bad = damaged(delta.images, "pages-1.img", how);
    try {
      restore_over({&base.images, base.fs_prefix, ""}, bad, delta.fs_prefix);
      FAIL() << "restore accepted a damaged delta layer";
    } catch (const RestoreError& e) {
      EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
      EXPECT_EQ(e.chain_link(), 0);
    }
  }
}

TEST_F(LayerRestoreTest, MismatchedBasePairingRejected) {
  // A delta restored over a base it was not diffed against must fail typed
  // at the base's depth, not silently mix layers.
  const core::BakedSnapshot base = bake_base(11);
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  rt::FunctionSpec other_spec;
  other_spec.name = "rt-base-other";
  other_spec.handler_id = "noop";
  other_spec.runtime_binary = exp::noop_spec().runtime_binary;
  other_spec.memory_seed ^= 0xBAD;
  const core::BakedSnapshot other = bake(other_spec, nullptr, 12);
  try {
    restore_over({&other.images, other.fs_prefix, ""}, delta.images,
                 delta.fs_prefix);
    FAIL() << "restore accepted a mismatched base layer";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);
    EXPECT_NE(std::string{e.what()}.find("digest mismatch"),
              std::string::npos);
  }
}

TEST_F(LayerRestoreTest, BaseChangedAfterPairedRestoreFailsNextPairing) {
  // The base's layer digest is cached with its decode: put() must drop it
  // with the rest of the cache, or the next restore would pair the delta
  // with content it was never diffed against.
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  ImageDir changing = base.images;
  const ImageDir untouched = base.images;
  const RestoreResult first = restore_over({&changing, base.fs_prefix, ""},
                                           delta.images, delta.fs_prefix);
  EXPECT_NE(first.pid, os::kNoPid);

  // A well-formed pages image with one digest changed: every CRC passes,
  // only the content differs from what the delta was diffed against.
  const ImageDir::ImageFile& old_pages = changing.get("pages-1.img");
  PagesEntry pages = decode_pages(old_pages.bytes);
  ASSERT_FALSE(pages.digests.empty());
  pages.digests.front() ^= 1;
  changing.put("pages-1.img", encode_pages(pages), old_pages.nominal_size);
  try {
    restore_over({&changing, base.fs_prefix, ""}, delta.images,
                 delta.fs_prefix);
    FAIL() << "restore paired the delta with a changed base";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);
    EXPECT_NE(std::string{e.what()}.find("digest mismatch"),
              std::string::npos);
  }

  // An independent copy of the base never saw the put(): still pairs.
  const RestoreResult again = restore_over({&untouched, base.fs_prefix, ""},
                                           delta.images, delta.fs_prefix);
  EXPECT_NE(again.pid, os::kNoPid);
}

TEST_F(LayerRestoreTest, MissingManifestRejected) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot mono = bake(exp::markdown_spec(), nullptr, 2);
  // A monolithic snapshot carries no layers-1.img, and the base is not a
  // pre-dump of its process: passing it as a delta is a caller error
  // surfaced as a typed missing-image failure.
  try {
    restore_over({&base.images, base.fs_prefix, ""}, mono.images,
                 mono.fs_prefix);
    FAIL() << "restore accepted a delta without a manifest";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kMissingImage);
    EXPECT_EQ(e.chain_link(), 0);
  }
}

TEST_F(LayerRestoreTest, DeltaWithoutBaseRejected) {
  // A split delta restored alone would rebuild a fraction of the function
  // (only the pages it did not share with the base): its manifest names two
  // layers, the caller passed one.
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  RestoreOptions opts;
  opts.fs_prefix = delta.fs_prefix;
  try {
    Restorer{kernel_}.restore(delta.images, opts);
    FAIL() << "restore accepted a split delta without its base";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kConfig);
    EXPECT_EQ(e.chain_link(), 0);
  }
}

TEST_F(LayerRestoreTest, LayeredWithWsPrefetchServesWorkingSet) {
  // Composition with §6j: a non-eager layered restore replays the full
  // chain under the working-set policy — the recorded set is bulk-mapped,
  // the cold tail lazy-served.
  const core::BakedSnapshot base = bake_base();
  core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  os::VmaId heap = 0;
  for (const VmaEntry& e : delta.images.decoded().vmas)
    if (e.name == "[jvm-heap]") heap = e.id;
  ASSERT_NE(heap, 0u);
  WorkingSetImage ws;
  ws.runs = {WsRun{heap, 0, 16}};
  ws.total_pages = 16;
  delta.images.put(kWsImageName, encode_ws(ws));

  RestoreOptions opts;
  opts.paging = PagingPolicy::ws_prefetch();
  const ImageLink plain_base{&base.images, base.fs_prefix, ""};
  const RestoreResult r =
      restore_over(plain_base, delta.images, delta.fs_prefix, opts);
  EXPECT_FALSE(r.ws_fallback);
  EXPECT_EQ(r.ws_prefetched_pages, 16u);
  ASSERT_NE(r.lazy_server, nullptr);
  EXPECT_GT(r.lazy_server->pending_pages(), 0u);
  // Draining the tail completes the restore like any lazy chain replay:
  // residency matches an eager restore of the same chain. (The sum of the
  // two layers' dumped pages over-counts: positions the delta re-dumps over
  // the base — the pid-seeded stack — replay twice onto one page.)
  r.lazy_server->page_in_all();
  const RestoreResult eager =
      restore_over(plain_base, delta.images, delta.fs_prefix);
  EXPECT_EQ(kernel_.process(r.pid).mm().resident_pages(),
            kernel_.process(eager.pid).mm().resident_pages());
}

// --- determinism across engine threads -------------------------------------

TEST(LayerDeterminism, LayeredWsPrefetchBitIdenticalAcrossEngineThreads) {
  // Four independent layered + ws-prefetch worlds, summarized like a bench
  // JSON cell; the sweep must not depend on the runner's thread count (same
  // determinism bar as tools/run_benches.sh --check).
  auto sweep = [](int threads) {
    exp::ParallelRunner runner{threads};
    std::vector<std::string> out(4);
    runner.for_each(4, [&](std::size_t i) {
      sim::Simulation sim;
      os::Kernel kernel{sim, exp::testbed_costs()};
      funcs::SharedAssets assets;
      core::StartupService startup{kernel, exp::testbed_runtime(), assets};
      faas::FunctionBuilder builder{kernel, startup};

      rt::FunctionSpec base_spec;
      base_spec.name = "rt-base";
      base_spec.handler_id = "noop";
      base_spec.runtime_binary = exp::noop_spec().runtime_binary;
      core::PrebakeConfig cfg;
      cfg.store_root = "/registry/";
      faas::BuildResult bb = builder.build(base_spec, cfg, sim::Rng{11});
      const core::BakedSnapshot base = std::move(*bb.snapshot);

      rt::FunctionSpec spec = exp::markdown_spec();
      spec.memory_seed ^= 0x51ED0000ULL + i * 0x9E37ULL;
      cfg.split_base = &base;
      faas::BuildResult fb = builder.build(spec, cfg, sim::Rng{100 + i});
      core::BakedSnapshot delta = std::move(*fb.snapshot);

      os::VmaId heap = 0;
      for (const VmaEntry& e : delta.images.decoded().vmas)
        if (e.name == "[jvm-heap]") heap = e.id;
      WorkingSetImage ws;
      ws.runs = {WsRun{heap, 0, 8 + static_cast<std::uint64_t>(i)}};
      ws.total_pages = 8 + i;
      delta.images.put(kWsImageName, encode_ws(ws));

      RestoreOptions opts;
      opts.paging = PagingPolicy::ws_prefetch();
      opts.fs_prefix = delta.fs_prefix;
      const ImageLink lower[] = {{&base.images, base.fs_prefix, ""}};
      const sim::TimePoint t0 = sim.now();
      const RestoreResult r =
          Restorer{kernel}.restore(delta.images, opts, lower);
      char buf[160];
      std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu/%.6f",
                    static_cast<unsigned long long>(r.pages_restored),
                    static_cast<unsigned long long>(r.ws_prefetched_pages),
                    static_cast<unsigned long long>(
                        r.lazy_server->pending_pages()),
                    static_cast<unsigned long long>(r.layer_shared_pages),
                    (sim.now() - t0).to_millis());
      out[i] = buf;
    });
    return out;
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

}  // namespace
}  // namespace prebake::criu

// --- platform lifecycle ----------------------------------------------------

namespace prebake::faas {
namespace {

constexpr std::uint64_t GiB = 1024ull * 1024 * 1024;

class LayerPlatformTest : public ::testing::Test {
 protected:
  LayerPlatformTest() : kernel_{sim_, exp::testbed_costs()} {
    PlatformConfig cfg;
    cfg.layered = true;
    cfg.page_store = true;
    cfg.node_page_store_bytes = 2 * GiB;
    cfg.idle_timeout = sim::Duration::seconds(1);
    platform_.emplace(kernel_, exp::testbed_runtime(), cfg, 99);
    node_ = platform_->resources().add_node("w1", 8 * GiB);
  }

  void invoke_ok(const std::string& fn) {
    bool done = false;
    platform_->invoke(
        fn, funcs::sample_request(platform_->registry().get(fn).spec.handler_id),
        [&](const funcs::Response& res, const RequestMetrics&) {
          EXPECT_TRUE(res.ok()) << fn;
          done = true;
        });
    while (!done && sim_.step()) {
    }
    EXPECT_TRUE(done) << fn;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  std::optional<Platform> platform_;
  NodeId node_ = 0;
};

TEST_F(LayerPlatformTest, LayeredDeployBakesSharedBaseOnce) {
  platform_->deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  const std::string base_name =
      Platform::base_snapshot_name(exp::noop_spec().runtime_binary);
  ASSERT_TRUE(
      platform_->snapshots().has(base_name, core::SnapshotPolicy::no_warmup()));
  const core::BakedSnapshot& snap = platform_->snapshots().get(
      exp::noop_spec().name, core::SnapshotPolicy::warmup(1));
  EXPECT_EQ(snap.base_function, base_name);
  EXPECT_GT(snap.shared_with_base, 0u);

  // A second function on the same runtime reuses the baked base.
  const std::size_t snaps_before = platform_->snapshots().size();
  platform_->deploy(exp::markdown_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  EXPECT_EQ(platform_->snapshots().size(), snaps_before + 1);  // no second base
}

TEST_F(LayerPlatformTest, FleetSharesOnePinnedBaseTemplate) {
  platform_->deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  platform_->deploy(exp::markdown_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  invoke_ok("noop");
  invoke_ok("markdown-render");
  EXPECT_EQ(platform_->stats().layered_starts, 2u);
  EXPECT_EQ(platform_->stats().base_templates_materialized, 1u);
  EXPECT_EQ(platform_->stats().base_template_clones, 1u);
  EXPECT_EQ(platform_->resources().node(node_).stats().base_template_clones,
            1u);
}

TEST_F(LayerPlatformTest, BaseTemplateEvictionFallsBackWithoutLostRequests) {
  platform_->deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  platform_->deploy(exp::markdown_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  invoke_ok("noop");
  invoke_ok("markdown-render");
  ASSERT_EQ(platform_->stats().base_templates_materialized, 1u);

  // Idle the fleet out, then reclaim the pinned base (memory pressure): the
  // base template and every function template depending on it go away.
  sim_.run();
  EXPECT_EQ(platform_->replica_count("noop"), 0u);
  EXPECT_GE(platform_->evict_base_templates(node_), 1u);

  // Mid-fleet loss of the base is absorbed, never surfaced: the next starts
  // rebuild from images (re-pinning the base) and answer every request.
  invoke_ok("noop");
  invoke_ok("markdown-render");
  EXPECT_EQ(platform_->stats().layered_starts, 4u);
  EXPECT_EQ(platform_->stats().base_templates_materialized, 2u);
  EXPECT_EQ(platform_->stats().invocations, 4u);
  EXPECT_EQ(platform_->stats().rejected, 0u);
}

}  // namespace
}  // namespace prebake::faas

