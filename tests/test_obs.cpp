// obs:: structured tracing & metrics — determinism across thread counts,
// the zero-cost disabled path, exporter round-trips, and the chaos
// scenario's quarantine span bookkeeping. Every suite here is named
// Trace* so `ctest -L trace` (and the sanitizer pass) can select them.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "criu/dump.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/run.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

// Allocation counting for the TraceNull zero-allocation assertion. The
// global operator new replacement is incompatible with the sanitizer
// interceptors, so the sanitized pass skips that one test.
#if defined(__SANITIZE_ADDRESS__)
#define PREBAKE_NO_ALLOC_COUNTING 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PREBAKE_NO_ALLOC_COUNTING 1
#endif
#endif

#ifndef PREBAKE_NO_ALLOC_COUNTING
// GCC pairs the default library operator new with our free()-based delete
// and warns about a mismatch — a false positive when both operators are
// replaced together, so silence it for this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace prebake {
namespace {

bool same_span(const obs::SpanRecord& a, const obs::SpanRecord& b) {
  return a.id == b.id && a.parent == b.parent && a.track == b.track &&
         a.seq == b.seq && a.start_ns == b.start_ns && a.end_ns == b.end_ns &&
         a.name == b.name && a.category == b.category && a.attrs == b.attrs;
}

bool same_spans(const std::vector<obs::SpanRecord>& a,
                const std::vector<obs::SpanRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_span(a[i], b[i])) return false;
  return true;
}

std::string attr_of(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs)
    if (k == key) return v;
  return {};
}

// --- Tracer basics ---------------------------------------------------------

TEST(TraceCore, SpansNestViaOpenStack) {
  sim::Simulation sim;
  obs::Tracer tracer{sim};
  tracer.enable(3);

  obs::Span outer = tracer.span("outer", "t");
  sim.advance(sim::Duration::millis(1));
  {
    obs::Span inner = tracer.span("inner", "t");
    sim.advance(sim::Duration::millis(2));
  }
  obs::Span after = tracer.instant("marker", "t");
  outer.end();

  const auto spans = tracer.take_records();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].id, obs::make_span_id(3, 1));
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].start_ns, 1'000'000);
  EXPECT_EQ(spans[1].end_ns, 3'000'000);
  // The instant opened after `inner` closed parents to `outer` again.
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[2].start_ns, spans[2].end_ns);
}

TEST(TraceCore, TakeRecordsClosesOpenSpansAtNow) {
  sim::Simulation sim;
  obs::Tracer tracer{sim};
  tracer.enable();
  obs::Span open = tracer.span("open", "t");
  sim.advance(sim::Duration::millis(5));
  const auto spans = tracer.take_records();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end_ns, 5'000'000);
  EXPECT_EQ(tracer.records().size(), 0u);
}

TEST(TraceCore, RootParentAdoptsCrossTrackRoot) {
  sim::Simulation sim;
  obs::Tracer tracer{sim};
  const obs::SpanId root = obs::make_span_id(0, 1);
  tracer.enable(7, root);
  obs::Span top = tracer.span("top", "t");
  const auto spans = tracer.take_records();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, root);
  EXPECT_EQ(obs::span_track(spans[0].id), 7u);
}

TEST(TraceCore, CountersAndHistogramsRecordWhenEnabled) {
  sim::Simulation sim;
  obs::Tracer tracer{sim};
  tracer.count("ignored.before.enable");
  tracer.enable();
  tracer.count("bytes", 10);
  tracer.count("bytes", 5);
  tracer.measure("ms", 2.0);
  tracer.measure("ms", 4.0);
  EXPECT_EQ(tracer.metrics().counter("ignored.before.enable"), 0u);
  EXPECT_EQ(tracer.metrics().counter("bytes"), 15u);
  const obs::LogHistogram* hist = tracer.metrics().histogram("ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_DOUBLE_EQ(hist->sum_ms(), 6.0);
}

TEST(TraceCore, HistogramMergeMatchesCombinedRecording) {
  obs::LogHistogram a, b, combined;
  for (double v : {1.0, 5.0, 9.5}) {
    a.record(v);
    combined.record(v);
  }
  for (double v : {0.5, 70.0}) {
    b.record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum_ms(), combined.sum_ms());
  EXPECT_DOUBLE_EQ(a.min_ms(), combined.min_ms());
  EXPECT_DOUBLE_EQ(a.max_ms(), combined.max_ms());
  for (double q : {0.25, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(a.percentile(q), combined.percentile(q));
}

// --- The disabled fast path ------------------------------------------------

TEST(TraceNull, DisabledTracerRecordsNothing) {
  sim::Simulation sim;
  obs::Tracer tracer{sim};
  obs::Span s = tracer.span("never", "t");
  EXPECT_FALSE(s.active());
  EXPECT_EQ(s.id(), 0u);
  s.attr("k", "v");
  s.end();
  tracer.count("never");
  tracer.measure("never", 1.0);
  EXPECT_EQ(tracer.total_spans(), 0u);
  EXPECT_TRUE(tracer.metrics().empty());
}

TEST(TraceNull, DisabledPathAllocatesNothing) {
#ifdef PREBAKE_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is off under sanitizers";
#else
  sim::Simulation sim;
  obs::Tracer tracer{sim};

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::Span span = tracer.span("hot-path", "bench");
    span.attr("key", "value");
    span.attr("n", 42);
    span.attr("f", 1.5);
    obs::Span marker = tracer.instant("marker", "bench");
    tracer.count("counter", 7);
    tracer.measure("histogram", 3.25);
    span.end();
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "disabled tracing must not allocate (benches must stay identical)";
  EXPECT_EQ(tracer.total_spans(), 0u);
#endif
}

// The restore hot path's heap traffic, with tracing off: one steady-state
// eager restore + kill + reap of a persisted snapshot. The per-VMA page
// generators come from the decode cache, image files are looked up without
// building their paths, and a clear dirty map holds no storage; what is left
// is the process itself (object, thread table, pid-table node, argv), the
// VMA table, the replay's per-VMA id table, and one residency map per
// replayed VMA.
TEST(TraceNull, SteadyStateRestoreAllocationBudget) {
#ifdef PREBAKE_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is off under sanitizers";
#else
  sim::Simulation sim;
  os::Kernel kernel{sim};
  kernel.fs().create("/bin/app", 1024 * 1024);
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId heap = kernel.mmap(
      pid, 256 * os::kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
      "[heap]", std::make_shared<os::PatternSource>(7), false);
  kernel.fault_in_all(pid, heap, /*write=*/true);
  criu::DumpOptions dopts;
  dopts.fs_prefix = "/snap/alloc/";
  const criu::DumpResult dump = criu::Dumper{kernel}.dump(pid, dopts);

  criu::RestoreOptions opts;
  opts.fs_prefix = "/snap/alloc/";
  criu::Restorer restorer{kernel};
  const auto cycle = [&] {
    const criu::RestoreResult r = restorer.restore(dump.images, opts);
    kernel.kill_process(r.pid);
    kernel.reap(r.pid);
  };
  cycle();  // first restore fills the decode cache
  constexpr std::uint64_t kCycles = 10;
  constexpr std::uint64_t kBudget = 9;  // per restore + kill + reap
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kCycles; ++i) cycle();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_LE(after - before, kBudget * kCycles)
      << "steady-state restore allocates "
      << static_cast<double>(after - before) / kCycles << " times per cycle";
#endif
}

// Work-counter gates for the page store and the layered pairing check:
// allocation counts do not move with host speed or load, unlike timings.
TEST(TraceNull, StoreSteadyStateOpsAllocateNothing) {
#ifdef PREBAKE_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is off under sanitizers";
#else
  criu::PageStore store;
  std::vector<std::uint64_t> digests(4096);
  for (std::uint64_t i = 0; i < digests.size(); ++i)
    digests[i] = (i + 1) * 0xD1B54A32D192ED03ull;
  store.insert(digests);
  // What a cold node's locality score sees: half the list stored, the other
  // half missing, every missing digest listed twice.
  std::vector<std::uint64_t> half_cold(digests.begin(), digests.begin() + 2048);
  for (std::uint64_t i = 0; i < 2 * 1024; ++i)
    half_cold.push_back((i % 1024 + 1) * 0x9E3779B97F4A7C15ull);
  (void)store.missing_unique_pages(half_cold);  // sizes its scratch once
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(store.insert(digests), 0u);
    store.pin(digests);
    store.unpin(digests);
    EXPECT_EQ(store.missing_unique_pages(digests), 0u);
    EXPECT_EQ(store.missing_unique_pages(half_cold), 1024u);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "re-inserting or pinning stored digests, or counting missing ones, "
         "allocated";
#endif
}

TEST(TraceNull, SteadyStateLayeredRestoreAllocationBudget) {
#ifdef PREBAKE_NO_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is off under sanitizers";
#else
  sim::Simulation sim;
  os::Kernel kernel{sim};
  kernel.fs().create("/bin/app", 1024 * 1024);
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId heap = kernel.mmap(
      pid, 256 * os::kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
      "[heap]", std::make_shared<os::PatternSource>(7), false);
  kernel.fault_in_all(pid, heap, /*write=*/true);
  criu::DumpOptions bopts;
  bopts.fs_prefix = "/snap/base/";
  bopts.leave_running = true;
  const criu::DumpResult base = criu::Dumper{kernel}.dump(pid, bopts);
  // The app's own pages on top of the runtime's: the split delta.
  const os::VmaId app = kernel.mmap(
      pid, 64 * os::kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
      "[app]", std::make_shared<os::PatternSource>(9), false);
  kernel.fault_in_all(pid, app, /*write=*/true);
  criu::DumpOptions dopts;
  dopts.fs_prefix = "/snap/delta/";
  dopts.split_base = &base.images;
  // Longer than any small-string buffer: decoding the manifest would
  // allocate for the id.
  dopts.split_base_id = "registry/runtime-base/prebake-nowarmup";
  const criu::DumpResult delta = criu::Dumper{kernel}.dump(pid, dopts);
  ASSERT_TRUE(delta.images.decoded().layers.has_value());

  // The fleet's steady state: the node holds the pinned base template, so
  // each restore clones it and replays the delta only.
  criu::PageStore store;
  criu::RestoreOptions opts;
  opts.fs_prefix = "/snap/delta/";
  opts.page_store = &store;
  const criu::ImageLink lower[] = {{&base.images, "/snap/base/", "/snap/base/"}};
  criu::Restorer restorer{kernel};
  const auto cycle = [&] {
    const criu::RestoreResult r = restorer.restore(delta.images, opts, lower);
    EXPECT_TRUE(r.base_template_clone);
    kernel.kill_process(r.pid);
    kernel.reap(r.pid);
  };
  const criu::RestoreResult first = restorer.restore(delta.images, opts, lower);
  ASSERT_TRUE(first.base_template_materialized);
  kernel.kill_process(first.pid);
  kernel.reap(first.pid);
  cycle();  // warms every per-thread scratch buffer

  // The manifest stays the one decoded with the rest of the directory.
  const criu::LayerManifest* manifest = &*delta.images.decoded().layers;
  constexpr std::uint64_t kCycles = 10;
  // Per restore + kill + reap. A manifest decode per pairing check would
  // add 2 (the layer table and the long base id).
  constexpr std::uint64_t kBudget = 16;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kCycles; ++i) cycle();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(&*delta.images.decoded().layers, manifest);
  EXPECT_LE(after - before, kBudget * kCycles)
      << "steady-state layered restore allocates "
      << static_cast<double>(after - before) / kCycles << " times per cycle";
#endif
}

// --- Determinism across thread counts --------------------------------------

exp::ScenarioSpec traced_noop_spec(int reps, int threads) {
  exp::ScenarioConfig cfg;
  cfg.spec = exp::noop_spec();
  cfg.technique = exp::Technique::kPrebakeNoWarmup;
  cfg.repetitions = reps;
  cfg.seed = 42;
  cfg.threads = threads;
  exp::ScenarioSpec spec = exp::ScenarioSpec::from(cfg);
  spec.trace = true;
  return spec;
}

TEST(TraceDeterminism, MergedSpanListIdenticalAcrossThreadCounts) {
  // 60 reps = 3 shards: enough for real cross-shard interleaving.
  const exp::ScenarioRun at1 = exp::run(traced_noop_spec(60, 1));
  const exp::ScenarioRun at4 = exp::run(traced_noop_spec(60, 4));

  ASSERT_FALSE(at1.trace.spans.empty());
  EXPECT_TRUE(same_spans(at1.trace.spans, at4.trace.spans));
  EXPECT_EQ(at1.trace.metrics.counters().size(),
            at4.trace.metrics.counters().size());
  for (const auto& c : at1.trace.metrics.counters())
    EXPECT_EQ(at4.trace.metrics.counter(c.name), c.value) << c.name;
  // And tracing itself never changes the simulated results.
  EXPECT_EQ(at1.startup.startup_ms, at4.startup.startup_ms);
  const exp::ScenarioConfig untraced = [&] {
    exp::ScenarioConfig cfg;
    cfg.spec = exp::noop_spec();
    cfg.technique = exp::Technique::kPrebakeNoWarmup;
    cfg.repetitions = 60;
    cfg.seed = 42;
    return cfg;
  }();
  EXPECT_EQ(exp::run_startup_scenario(untraced).startup_ms,
            at1.startup.startup_ms);
}

TEST(TraceDeterminism, StartupTraceNestsFourLevelsDeep) {
  const exp::ScenarioRun run = exp::run(traced_noop_spec(5, 2));
  const auto& spans = run.trace.spans;

  std::map<obs::SpanId, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : spans) by_id[s.id] = &s;

  // Walk a per-image read up to the root: read -> image-reads ->
  // criu.restore -> start.prebaked -> replica-start -> scenario.
  const obs::SpanRecord* read = nullptr;
  for (const obs::SpanRecord& s : spans)
    if (s.name.rfind("read:", 0) == 0) read = &s;
  ASSERT_NE(read, nullptr) << "no per-image read span in a prebaked trace";

  std::vector<std::string> chain;
  for (const obs::SpanRecord* s = read; s != nullptr;
       s = s->parent != 0 ? by_id.at(s->parent) : nullptr)
    chain.push_back(s->name);
  ASSERT_GE(chain.size(), 5u) << "expected >= 4 nested levels under the root";
  EXPECT_EQ(chain.back(), "scenario");
  EXPECT_NE(std::find(chain.begin(), chain.end(), "criu.restore"), chain.end());
  EXPECT_NE(std::find(chain.begin(), chain.end(), "start.prebaked"),
            chain.end());
  EXPECT_NE(std::find(chain.begin(), chain.end(), "replica-start"),
            chain.end());

  // Every startup breakdown links back to a span in the trace.
  for (const auto& b : run.startup.breakdowns) {
    ASSERT_NE(b.span_id, 0u);
    ASSERT_TRUE(by_id.contains(b.span_id));
    EXPECT_EQ(by_id.at(b.span_id)->name, "start.prebaked");
  }
}

// --- Exporters -------------------------------------------------------------

obs::TraceReport small_report() {
  sim::Simulation sim;
  obs::Tracer tracer{sim};
  tracer.enable(1);
  obs::Span outer = tracer.span("outer", "test");
  outer.attr("function", "noop");
  outer.attr("bytes", std::uint64_t{123456});
  sim.advance(sim::Duration::micros(1500));
  {
    obs::Span inner = tracer.span("inner \"quoted\"\n", "test.io");
    inner.attr("n", -7);
    sim.advance(sim::Duration::nanos(1234567));
  }
  obs::Span mark = tracer.instant("marker", "test");
  outer.end();
  tracer.count("events", 3);
  tracer.count("bytes_read", 123456);
  tracer.measure("ms", 1.5);

  obs::TraceReport report;
  report.absorb(tracer);
  report.finalize();
  return report;
}

TEST(TraceExport, ChromeJsonRoundTripsSpanTree) {
  const obs::TraceReport report = small_report();
  const std::string json = obs::to_chrome_json(report);
  const obs::TraceReport parsed = obs::parse_chrome_json(json);

  EXPECT_TRUE(same_spans(report.spans, parsed.spans));
  // Counters survive via the ph:"C" events; histograms intentionally don't.
  EXPECT_EQ(parsed.metrics.counter("events"), 3u);
  EXPECT_EQ(parsed.metrics.counter("bytes_read"), 123456u);
}

TEST(TraceExport, ChromeJsonRoundTripsScenarioTrace) {
  const exp::ScenarioRun run = exp::run(traced_noop_spec(3, 1));
  const obs::TraceReport parsed =
      obs::parse_chrome_json(obs::to_chrome_json(run.trace));
  EXPECT_TRUE(same_spans(run.trace.spans, parsed.spans));
  for (const auto& c : run.trace.metrics.counters())
    EXPECT_EQ(parsed.metrics.counter(c.name), c.value) << c.name;
}

TEST(TraceExport, TextTreeShowsNestingAndMetrics) {
  const std::string tree = obs::to_text_tree(small_report());
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("  inner"), std::string::npos);  // indented child
  EXPECT_NE(tree.find("counters:"), std::string::npos);
  EXPECT_NE(tree.find("events"), std::string::npos);
  EXPECT_NE(tree.find("histograms:"), std::string::npos);
}

TEST(TraceExport, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::parse_chrome_json("not json"), std::runtime_error);
  EXPECT_THROW(obs::parse_chrome_json("{\"traceEvents\": 7}"),
               std::runtime_error);
}

// --- Chaos: quarantine spans vs. the circuit-breaker table ------------------

TEST(TraceChaos, QuarantineSpansMatchSnapshotHealth) {
  exp::ScenarioSpec spec;
  spec.kind = exp::ScenarioKind::kChaos;
  spec.trace = true;
  spec.seed = 42;
  spec.chaos.duration = sim::Duration::seconds(180);
  spec.chaos.rate_hz = 0.5;
  spec.chaos.quarantine_threshold = 2;
  spec.chaos.restore_max_attempts = 2;
  spec.chaos.faults.seed = 42;
  spec.chaos.faults.image_corruption_rate = 0.8;

  const exp::ScenarioRun run = exp::run(spec);
  ASSERT_GT(run.chaos.snapshot_quarantines, 0u)
      << "fault plan failed to trip any circuit breaker";

  std::map<std::string, std::uint64_t> enters, lifts;
  for (const obs::SpanRecord& s : run.trace.spans) {
    if (s.name == "quarantine.enter") ++enters[attr_of(s, "function")];
    if (s.name == "quarantine.lift") ++lifts[attr_of(s, "function")];
  }

  std::uint64_t total_enters = 0, total_lifts = 0;
  for (const auto& [fn, n] : enters) total_enters += n;
  for (const auto& [fn, n] : lifts) total_lifts += n;
  EXPECT_EQ(total_enters, run.chaos.snapshot_quarantines);
  EXPECT_EQ(total_lifts, run.chaos.snapshot_rebakes);
  EXPECT_EQ(run.trace.metrics.counter("faas.quarantines"), total_enters);
  EXPECT_EQ(run.trace.metrics.counter("faas.rebakes"), total_lifts);

  // Per function: every enter is matched by a lift unless the run ended
  // with the snapshot still quarantined.
  for (const auto& row : run.chaos.snapshot_health) {
    const std::uint64_t still = row.quarantined ? 1u : 0u;
    EXPECT_EQ(enters[row.function], lifts[row.function] + still)
        << row.function;
    EXPECT_EQ(lifts[row.function], row.rebakes) << row.function;
  }
  // And no quarantine span names a function the health table doesn't know.
  for (const auto& [fn, n] : enters) {
    const bool known =
        std::any_of(run.chaos.snapshot_health.begin(),
                    run.chaos.snapshot_health.end(),
                    [&](const auto& row) { return row.function == fn; });
    EXPECT_TRUE(known) << fn;
  }
}

}  // namespace
}  // namespace prebake
