// Streaming trace sources and the one request driver (DESIGN.md §6h):
// source draw protocols, source merging, Zipf sampler determinism, CSV
// round-trips, and replay_trace_stream against the up-front oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
#include <vector>

#include "exp/calibration.hpp"
#include "faas/platform.hpp"
#include "faas/trace.hpp"
#include "faas/trace_source.hpp"
#include "os/kernel.hpp"
#include "replay_oracle.hpp"
#include "rt/classfile.hpp"
#include "sim/simulation.hpp"

using namespace prebake;
using faas::drain;

namespace {

rt::FunctionSpec tiny_spec(const std::string& name) {
  rt::FunctionSpec spec;
  spec.name = name;
  spec.handler_id = "noop";
  spec.init_classes = rt::synth_class_set("s", 4, 40'000, 0x11u);
  spec.appinit_compute = sim::Duration::millis(1);
  return spec;
}

}  // namespace

TEST(TraceStreamPoisson, MatchesLegacyGeneratorExactly) {
  // The hand-rolled arrival loop the scenario runners used before they
  // replayed sources: same RNG draws, same events, same order.
  const sim::Duration window = sim::Duration::seconds(120);
  std::vector<faas::TraceEvent> legacy;
  sim::Rng rng = sim::Rng{7}.child(2);
  for (sim::Duration at{};;) {
    at += sim::Duration::seconds_f(rng.exponential(1.0 / 5.0));
    if (at >= window) break;
    legacy.push_back({at, "fn"});
  }
  faas::PoissonTraceSource source{"fn", 5.0, window, sim::Rng{7}.child(2)};
  const auto streamed = drain(source);
  EXPECT_EQ(streamed, legacy);
  EXPECT_GT(streamed.size(), 400u);
}

TEST(TraceStreamPoisson, ExhaustedSourceStaysExhausted) {
  faas::PoissonTraceSource source{"fn", 50.0, sim::Duration::seconds(1),
                                  sim::Rng{3}};
  drain(source);
  EXPECT_FALSE(source.next().has_value());
  EXPECT_FALSE(source.next().has_value());
}

TEST(TraceStreamDiurnal, MatchesLegacyGeneratorExactly) {
  faas::DiurnalTraceSource source{"fn",
                                  1.0,
                                  8.0,
                                  sim::Duration::seconds(60),
                                  sim::Duration::seconds(300),
                                  11};
  // Lewis-Shedler thinning against the peak rate, trough at t=0: one
  // exponential gap then one acceptance draw per candidate.
  std::vector<faas::TraceEvent> legacy;
  sim::Rng rng{11};
  for (sim::Duration at{};;) {
    at += sim::Duration::seconds_f(rng.exponential(1.0 / 8.0));
    if (at >= sim::Duration::seconds(300)) break;
    const double rate =
        4.5 - 3.5 * std::cos(2.0 * std::numbers::pi * (at.to_seconds() / 60.0));
    if (rng.uniform() * 8.0 <= rate) legacy.push_back({at, "fn"});
  }
  const auto streamed = drain(source);
  EXPECT_EQ(streamed, legacy);
  EXPECT_GT(streamed.size(), 100u);
}

TEST(TraceStreamDiurnal, ValidationNamesBothRates) {
  try {
    faas::DiurnalTraceSource bad{"fn", 5.0, 1.0, sim::Duration::seconds(60),
                                 sim::Duration::seconds(60), 1};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("base_rate_hz=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("peak_rate_hz=1"), std::string::npos) << msg;
  }
}

namespace {

std::unique_ptr<faas::TraceSource> vector_source(
    std::vector<faas::TraceEvent> events) {
  return std::make_unique<faas::VectorTraceSource>(std::move(events));
}

}  // namespace

TEST(TraceStreamMerged, OrdersByTimeThenSourceIndex) {
  const auto ms = [](int n) { return sim::Duration::millis(n); };
  std::vector<std::unique_ptr<faas::TraceSource>> sources;
  sources.push_back(vector_source({{ms(5), "a"}, {ms(10), "a"}}));
  sources.push_back(vector_source({{ms(1), "b"}, {ms(5), "b"}, {ms(10), "b"}}));
  sources.push_back(vector_source({{ms(5), "c"}}));
  faas::MergedTraceSource merged{std::move(sources)};
  const std::vector<faas::TraceEvent> want{
      {ms(1), "b"}, {ms(5), "a"},  {ms(5), "b"},
      {ms(5), "c"}, {ms(10), "a"}, {ms(10), "b"}};
  EXPECT_EQ(drain(merged), want);
  EXPECT_FALSE(merged.next().has_value());  // exhausted stays exhausted
  EXPECT_FALSE(merged.next().has_value());
}

TEST(TraceStreamMerged, EmptyInputsContributeNothing) {
  const auto ms = [](int n) { return sim::Duration::millis(n); };
  std::vector<std::unique_ptr<faas::TraceSource>> sources;
  sources.push_back(vector_source({}));
  sources.push_back(vector_source({{ms(3), "x"}, {ms(4), "x"}}));
  sources.push_back(vector_source({}));
  faas::MergedTraceSource merged{std::move(sources)};
  const std::vector<faas::TraceEvent> want{{ms(3), "x"}, {ms(4), "x"}};
  EXPECT_EQ(drain(merged), want);

  faas::MergedTraceSource none{{}};
  EXPECT_FALSE(none.next().has_value());
}

TEST(TraceStreamZipf, SamplerGoldenSequence) {
  // Pinned draw sequence: any change to the CDF construction or the
  // uniform-draw protocol shows up here before it silently reshuffles
  // every seeded workload in the policy study.
  faas::ZipfSampler sampler{16, 1.0};
  sim::Rng rng{123};
  const std::uint32_t expected[] = {4, 9, 4,  2, 0, 3, 6, 11,
                                    13, 4, 7, 2, 14, 1, 5, 2};
  for (std::uint32_t want : expected) EXPECT_EQ(sampler.sample(rng), want);
}

TEST(TraceStreamZipf, ProbabilitiesFollowThePowerLaw) {
  faas::ZipfSampler sampler{16, 1.0};
  // H(16) = sum 1/k ~ 3.3807; P(0) = 1/H, and P(i) ~ 1/(i+1).
  EXPECT_NEAR(sampler.probability(0), 0.295794, 1e-5);
  EXPECT_NEAR(sampler.probability(1) / sampler.probability(0), 0.5, 1e-9);
  EXPECT_NEAR(sampler.probability(15) / sampler.probability(0), 1.0 / 16.0,
              1e-9);
}

TEST(TraceStreamZipf, ZeroSkewIsUniform) {
  faas::ZipfSampler sampler{8, 0.0};
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_NEAR(sampler.probability(i), 0.125, 1e-12);
}

TEST(TraceStreamZipf, SourceIsSeedDeterministic) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 20;
  cfg.rate_hz = 50.0;
  cfg.duration = sim::Duration::seconds(60);
  cfg.seed = 99;
  faas::ZipfTraceSource a{cfg};
  faas::ZipfTraceSource b{cfg};
  EXPECT_EQ(drain(a), drain(b));
}

TEST(TraceStreamZipf, MaxEventsBoundsTheStream) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 10;
  cfg.rate_hz = 100.0;
  cfg.duration = sim::Duration::seconds(3600);
  cfg.max_events = 250;
  faas::ZipfTraceSource source{cfg};
  EXPECT_EQ(drain(source).size(), 250u);
  EXPECT_FALSE(source.next().has_value());
}

TEST(TraceStreamZipf, EventsAreOrderedAndNamedByRank) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 5;
  cfg.rate_hz = 30.0;
  cfg.duration = sim::Duration::seconds(30);
  faas::ZipfTraceSource source{cfg};
  ASSERT_EQ(source.function_names().size(), 5u);
  EXPECT_EQ(source.function_names()[0], "fn-0");
  sim::Duration prev{};
  std::size_t count = 0;
  while (std::optional<faas::TraceEvent> e = source.next()) {
    EXPECT_GE(e->at, prev);
    prev = e->at;
    EXPECT_EQ(e->function.rfind("fn-", 0), 0u);
    ++count;
  }
  EXPECT_GT(count, 100u);
}

TEST(TraceStreamCsv, StreamedTraceRoundTrips) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 12;
  cfg.rate_hz = 40.0;
  cfg.duration = sim::Duration::seconds(30);
  cfg.seed = 5;
  faas::ZipfTraceSource source{cfg};
  const auto events = drain(source);
  ASSERT_GT(events.size(), 100u);

  const std::string csv = faas::format_trace_csv(events);
  const auto parsed = faas::parse_trace_csv(csv);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].function, events[i].function);
    // The format keeps 3 decimals of milliseconds — microsecond precision.
    EXPECT_LE(std::abs((parsed[i].at - events[i].at).to_millis()), 0.0005);
  }
  // A second round-trip is exact: the format is a fixed point.
  EXPECT_EQ(faas::format_trace_csv(parsed), csv);
}

namespace {

// Two identical single-node platforms over one simulation each; used to
// compare the streaming replay against the materialized one.
struct ReplayRig {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::Platform platform;

  explicit ReplayRig(std::uint64_t seed, faas::PlatformConfig cfg = {})
      : platform{kernel, exp::testbed_runtime(), cfg, seed} {
    platform.resources().add_node("n1", 8ull << 30);
  }
};

faas::ZipfTraceConfig small_workload() {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 8;
  cfg.rate_hz = 20.0;
  cfg.duration = sim::Duration::seconds(120);
  cfg.seed = 21;
  return cfg;
}

void deploy_fleet(faas::Platform& platform, const faas::ZipfTraceSource& src) {
  for (const std::string& name : src.function_names())
    platform.deploy(tiny_spec(name), faas::StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
}

}  // namespace

TEST(TraceStreamReplay, MatchesMaterializedReplay) {
  const faas::ZipfTraceConfig wl = small_workload();

  ReplayRig a{7};
  faas::ZipfTraceSource src_a{wl};
  deploy_fleet(a.platform, src_a);
  const faas::StreamReplayResult streamed =
      faas::replay_trace_stream(a.platform, src_a);

  ReplayRig b{7};
  faas::ZipfTraceSource src_b{wl};
  deploy_fleet(b.platform, src_b);
  const auto events = drain(src_b);
  const reference::UpfrontReplay vec =
      reference::replay_upfront(b.platform, events);

  EXPECT_EQ(streamed.events, events.size());
  EXPECT_EQ(streamed.responses_ok, vec.responses_ok);
  EXPECT_EQ(streamed.responses_rejected, vec.responses_rejected);
  EXPECT_EQ(streamed.responses_fallback, vec.responses_fallback);
  EXPECT_EQ(streamed.makespan, vec.makespan);
  EXPECT_EQ(a.platform.stats().cold_starts, b.platform.stats().cold_starts);
}

TEST(TraceStreamReplay, MergedPoissonMatchesUpfrontOracle) {
  // The scenario runners' workload: one Poisson stream per function, each
  // from its own child RNG, merged. Streamed one arrival ahead it must serve
  // exactly what the schedule-everything-up-front oracle serves.
  const std::vector<std::string> names{"f0", "f1", "f2"};
  const sim::Duration window = sim::Duration::seconds(60);
  const sim::Rng rng{42};
  auto merged = [&] {
    std::vector<std::unique_ptr<faas::TraceSource>> sources;
    for (std::size_t f = 0; f < names.size(); ++f)
      sources.push_back(std::make_unique<faas::PoissonTraceSource>(
          names[f], 4.0, window, rng.child(f + 1)));
    return faas::MergedTraceSource{std::move(sources)};
  };
  auto deploy = [&](faas::Platform& platform) {
    for (const std::string& name : names)
      platform.deploy(tiny_spec(name), faas::StartMode::kPrebaked,
                      core::SnapshotPolicy::warmup(1));
  };

  ReplayRig a{11};
  deploy(a.platform);
  faas::MergedTraceSource src_a = merged();
  const faas::StreamReplayResult streamed =
      faas::replay_trace_stream(a.platform, src_a);

  ReplayRig b{11};
  deploy(b.platform);
  faas::MergedTraceSource src_b = merged();
  const auto events = drain(src_b);
  const reference::UpfrontReplay oracle =
      reference::replay_upfront(b.platform, events);

  EXPECT_GT(events.size(), 500u);
  EXPECT_EQ(streamed.events, events.size());
  EXPECT_EQ(streamed.responses_ok, oracle.responses_ok);
  EXPECT_EQ(streamed.responses_rejected, oracle.responses_rejected);
  EXPECT_EQ(streamed.makespan, oracle.makespan);
  EXPECT_EQ(a.platform.stats().cold_starts, b.platform.stats().cold_starts);
  EXPECT_EQ(streamed.aggregate.cold_starts, a.platform.stats().cold_starts);
}

TEST(TraceStreamReplay, UndeployedFunctionThrowsWithoutLeak) {
  // The throw surfaces from the arrival's simulation step; the replay must
  // still release its arrival chain (the sanitizer pass's leak check).
  ReplayRig rig{18};
  faas::VectorTraceSource source{{{sim::Duration::millis(1), "ghost"},
                                  {sim::Duration::millis(2), "ghost"}}};
  EXPECT_THROW(faas::replay_trace_stream(rig.platform, source),
               std::out_of_range);
  // The successor arrival was cancelled, not left to fire later.
  EXPECT_EQ(rig.sim.pending_events(), 0u);
  EXPECT_FALSE(rig.sim.step());
}

TEST(TraceStreamReplay, BoundedByDefaultOptInPerRequest) {
  const faas::ZipfTraceConfig wl = small_workload();

  // An aggregating platform keeps no per-request log: every view of the
  // stream is bounded.
  faas::PlatformConfig bounded_cfg;
  bounded_cfg.aggregate_request_log = true;
  ReplayRig a{7, bounded_cfg};
  faas::ZipfTraceSource src_a{wl};
  deploy_fleet(a.platform, src_a);
  const faas::StreamReplayResult bounded =
      faas::replay_trace_stream(a.platform, src_a);
  EXPECT_TRUE(a.platform.request_log().empty());
  EXPECT_EQ(bounded.aggregate.count, bounded.responses_ok);
  EXPECT_LE(bounded.per_function.size(), 8u);
  EXPECT_GT(bounded.peak_pending_events, 0u);
  EXPECT_GT(bounded.peak_replicas, 0u);

  // Per-request metrics are the platform's log, one row per served request.
  ReplayRig b{7};
  faas::ZipfTraceSource src_b{wl};
  deploy_fleet(b.platform, src_b);
  const faas::StreamReplayResult full =
      faas::replay_trace_stream(b.platform, src_b);
  EXPECT_EQ(b.platform.request_log().size(), full.responses_ok);
  EXPECT_EQ(full.responses_ok, bounded.responses_ok);
}

TEST(TraceStreamReplay, PerFunctionAggregatesCoverTheStream) {
  const faas::ZipfTraceConfig wl = small_workload();
  ReplayRig rig{3};
  faas::ZipfTraceSource src{wl};
  deploy_fleet(rig.platform, src);
  const faas::StreamReplayResult rep =
      faas::replay_trace_stream(rig.platform, src);

  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t colds = 0;
  for (const auto& [name, fa] : rep.per_function) {
    EXPECT_EQ(fa.requests, fa.ok + fa.rejected);
    requests += fa.requests;
    ok += fa.ok;
    colds += fa.cold_starts;
    if (fa.ok > 0) {
      EXPECT_GT(fa.total_ms_sum, 0.0);
      EXPECT_GE(fa.total_ms_max * static_cast<double>(fa.ok),
                fa.total_ms_sum * 0.999);
    }
  }
  EXPECT_EQ(requests, rep.events);
  EXPECT_EQ(ok, rep.responses_ok);
  EXPECT_EQ(colds, rep.aggregate.cold_starts);
  // Zipf head dominance: the hottest rank got the most requests.
  ASSERT_TRUE(rep.per_function.contains("fn-0"));
  for (const auto& [name, fa] : rep.per_function)
    EXPECT_LE(fa.requests, rep.per_function.at("fn-0").requests);
}

TEST(TraceStreamReplay, FallbackServesAreNotRejections) {
  // Corrupt every image read: each cold start exhausts its restore
  // attempts and falls back to Vanilla. Those requests are *served* — they
  // must land on the fallback axis, with the rejection axis untouched.
  faas::PlatformConfig cfg;
  cfg.restore_max_attempts = 2;
  ReplayRig rig{13, cfg};
  faas::ZipfTraceConfig wl = small_workload();
  wl.duration = sim::Duration::seconds(30);
  faas::ZipfTraceSource src{wl};
  deploy_fleet(rig.platform, src);

  os::FaultPlan plan;
  plan.seed = 13;
  plan.image_corruption_rate = 1.0;
  rig.kernel.faults().configure(plan);

  const faas::StreamReplayResult rep =
      faas::replay_trace_stream(rig.platform, src);
  EXPECT_EQ(rep.responses_ok, rep.events);
  EXPECT_EQ(rep.responses_rejected, 0u);
  EXPECT_GT(rep.responses_fallback, 0u);
  EXPECT_EQ(rep.aggregate.fallback_serves, rep.responses_fallback);
  EXPECT_GT(rig.platform.stats().restore_fallbacks, 0u);
  std::uint64_t per_fn_fallbacks = 0;
  for (const auto& [name, fa] : rep.per_function)
    per_fn_fallbacks += fa.fallback_serves;
  EXPECT_EQ(per_fn_fallbacks, rep.responses_fallback);
}
