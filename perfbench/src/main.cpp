// perfbench: the repository's benchmark program.
//
//   perfbench --workload <paper_cold_start|fleet_cold>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir DIR]
//
// Runs fixed-size passes of the workload until `seconds` of host time have
// gone by (at least kMinPasses). Every pass rebuilds its simulated world from
// the seed, so all simulated-clock outputs repeat bit for bit across passes
// and runs. host_requests_per_s pools the timed work of every pass; setup_s
// is the median over the passes. With --trace 0 the last line of stdout
// carries the end-to-end metrics, with --trace 1 the per-layer ones (from one
// extra traced pass plus the layer probes).
#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

// --- workload sizes ---------------------------------------------------------------
// 10260 cycles per pass: enough for request_p999_ms to have 10 samples
// beyond it, and for cold_start_p99_ms over the 6840 prebaked starts.
const PaperShape kPaper{1700, 20};
// Fig. 3 calibration behind paper_error_pct, run once per run.
const PaperShape kCalibration{5000, 300};
const FleetShape kFleetCold{400, 4, 50'000, 10'000};
// Smaller instances run as layer probes in traced runs, for the calls a
// workload does not make itself.
const PaperShape kPaperProbe{8, 1};
const FleetShape kFleetProbe{16, 2, 1'500, 0};

constexpr std::size_t kMinPasses = 4;
constexpr std::size_t kMinTracedRunPasses = 2;
constexpr std::size_t kMaxPasses = 64;
constexpr std::size_t kMaxSpansWritten = 200'000;

struct Workload {
  const char* name;
  std::function<void(std::uint64_t, PassResult&)> pass;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_cold_start",
       [](std::uint64_t seed, PassResult& r) { run_paper_pass(kPaper, seed, r); }},
      {"fleet_cold",
       [](std::uint64_t seed, PassResult& r) {
         run_fleet_pass(kFleetCold, seed, r);
       }},
  };
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || a.seconds <= 0.0) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// --- conditions ---------------------------------------------------------------------
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- JSON ----------------------------------------------------------------------------
std::string esc(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + num(values[i]);
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + esc(key) + "\": ") + json;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + esc(v) + "\"");
  }
  JsonObject& number(const std::string& key, double v) { return raw(key, num(v)); }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- simulated outputs --------------------------------------------------------------
std::uint64_t sim_fingerprint(const SimOutputs& s) {
  Fingerprint fp;
  for (const double v : s.cold_start_ms) fp.mix_double(v);
  fp.mix(s.cold_start_ms.size());
  for (const double v : s.request_ms) fp.mix_double(v);
  fp.mix(s.request_ms.size());
  fp.mix_double(s.cold_start_rate);
  fp.mix_double(s.mem_gb_h);
  fp.mix_double(s.paper_error_pct);
  for (const auto& [name, v] : s.layer) {
    for (const char c : name) fp.mix(static_cast<unsigned char>(c));
    fp.mix_double(v);
  }
  return fp.value();
}

// --- span aggregation --------------------------------------------------------------
struct SpanAgg {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

std::vector<double> self_times(const SpanLog& log) {
  const std::vector<SpanRecord>& spans = log.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  return self;
}

std::map<std::string, SpanAgg> aggregate(const SpanLog& log) {
  const std::vector<double> self = self_times(log);
  std::map<std::string, SpanAgg> out;
  const std::vector<SpanRecord>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanAgg& a = out[log.names()[spans[i].name]];
    ++a.count;
    a.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    a.self_ns += self[i];
  }
  return out;
}

// Spans named "bench.*" wrap the benchmark's own work (the closed-loop
// cycle, the arrival chain, response checks), not a call into a layer.
bool is_layer_span(const std::string& name) { return !name.starts_with("bench."); }

// Self seconds per span name of the spans recorded inside the timed window.
std::map<std::string, double> window_self_s(const SpanLog& log,
                                            std::int64_t from, std::int64_t to) {
  const std::vector<double> self = self_times(log);
  std::map<std::string, double> out;
  const std::vector<SpanRecord>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].start_ns >= from && spans[i].end_ns <= to)
      out[log.names()[spans[i].name]] += self[i] * 1e-9;
  return out;
}

void write_trace(const std::string& path, const SpanLog& log,
                 const std::map<std::string, SpanAgg>& agg) {
  std::ofstream f{path};
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::vector<SpanRecord>& spans = log.spans();
  const std::vector<double> self = self_times(log);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  f << "# perfbench trace: " << spans.size() << " spans, first "
    << std::min(spans.size(), kMaxSpansWritten) << " listed\n";
  f << "# summary\tname\tcount\ttotal_ns\tself_ns\n";
  for (const auto& [name, a] : agg)
    f << "summary\t" << name << '\t' << a.count << '\t'
      << static_cast<std::int64_t>(a.total_ns) << '\t'
      << static_cast<std::int64_t>(a.self_ns) << '\n';
  f << "# span\tindex\tname\tstart_ns\tend_ns\tself_ns\tparent\trequest\n";
  for (std::size_t i = 0; i < spans.size() && i < kMaxSpansWritten; ++i) {
    const SpanRecord& s = spans[i];
    f << "span\t" << i << '\t' << log.names()[s.name] << '\t'
      << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\t'
      << static_cast<std::int64_t>(self[i]) << '\t' << s.parent << '\t'
      << s.request << '\n';
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  JsonObject o;
  for (const Metric& m : ms)
    o.raw(m.name, JsonObject{}.number("value", m.value).str("unit", m.unit).dump());
  return o.dump();
}

// Operations attempted and failed over every pass a run makes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors)
      if (errors.size() < 8) errors.push_back(e);
  }
};

double rate(const PassResult& p) {
  return static_cast<double>(p.timed_requests) * 1e9 /
         static_cast<double>(p.timed_to_ns - p.timed_from_ns);
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());

  // --- untraced passes ------------------------------------------------------------
  const std::int64_t t0 = host_ns();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t min_passes = args.trace ? kMinTracedRunPasses : kMinPasses;
  std::vector<PassResult> passes;
  Tally tally;
  bool sim_identical = true;
  // Latency percentiles come from the first pass (every pass repeats its
  // simulated outputs); every pass's samples are freed once it ends.
  Percentile cs50, cs99, rq50, rq99, rq999;
  while (true) {
    PassResult r;
    wl->pass(args.seed, r);
    tally.add(r);
    r.sim.fingerprint = sim_fingerprint(r.sim);
    if (passes.empty()) {
      cs50 = percentile(r.sim.cold_start_ms, 0.50);
      cs99 = percentile(r.sim.cold_start_ms, 0.99);
      rq50 = percentile(r.sim.request_ms, 0.50);
      rq99 = percentile(r.sim.request_ms, 0.99);
      rq999 = percentile(r.sim.request_ms, 0.999);
    } else if (r.sim.fingerprint != passes.front().sim.fingerprint) {
      sim_identical = false;
    }
    std::vector<double>().swap(r.sim.cold_start_ms);
    std::vector<double>().swap(r.sim.request_ms);
    passes.push_back(std::move(r));
    const double elapsed = static_cast<double>(host_ns() - t0) * 1e-9;
    if (passes.size() >= kMaxPasses) break;
    if (passes.size() >= min_passes && elapsed >= budget) break;
  }
  const double rss_mib = peak_rss_mib();
  SimOutputs& sim = passes.front().sim;

  // Throughput over all the timed work of the run: host speed drifts on a
  // shared machine over seconds, and pooling the passes averages that drift
  // where a median of passes would snap to whichever speed held longest.
  std::vector<double> rates, setups, bakes, warms;
  double timed_requests = 0.0;
  double timed_ns = 0.0;
  for (const PassResult& p : passes) {
    rates.push_back(rate(p));
    setups.push_back(p.bake_s + p.warmup_s);
    bakes.push_back(p.bake_s);
    warms.push_back(p.warmup_s);
    timed_requests += static_cast<double>(p.timed_requests);
    timed_ns += static_cast<double>(p.timed_to_ns - p.timed_from_ns);
  }
  const double untraced_rate = timed_requests * 1e9 / timed_ns;

  // Every workload reports the Fig. 3 calibration at its seed, so a change
  // to the simulated costs shows wherever it is measured.
  if (!args.trace) sim.paper_error_pct = fig3_error_pct(kCalibration, args.seed);

  Fingerprint whole;
  whole.mix(sim.fingerprint);
  whole.mix_double(sim.paper_error_pct);
  const std::uint64_t fingerprint = whole.value();

  std::vector<Metric> metrics;
  bool correct = sim_identical;
  for (const auto& [name, p] :
       {std::pair{"cold_start_p50_ms", cs50}, std::pair{"cold_start_p99_ms", cs99},
        std::pair{"request_p50_ms", rq50}, std::pair{"request_p99_ms", rq99},
        std::pair{"request_p999_ms", rq999}})
    if (!p.enough()) {
      correct = false;
      tally.errors.push_back(std::string{name} + ": " + std::to_string(p.beyond) +
                             " of " + std::to_string(p.n) +
                             " samples beyond it, too few");
    }

  // --- traced pass + layer probes ---------------------------------------------------
  JsonObject constants;
  JsonObject accounting;
  double traced_rate = 0.0;
  double coverage = 0.0;
  if (args.trace) {
    SpanLog wlog;
    active_log() = &wlog;
    PassResult traced;
    wl->pass(args.seed, traced);
    active_log() = nullptr;
    tally.add(traced);
    if (sim_fingerprint(traced.sim) != sim.fingerprint) {
      correct = false;
      tally.errors.push_back("traced pass changed simulated outputs");
    }
    traced_rate = rate(traced);
    // The layer calls' self times in the traced timed run, against the host
    // time the same work took untraced: they agree within the tracing
    // overhead. The unattributed rest of the window is the benchmark's own
    // work and the gaps between spans.
    const double traced_s =
        static_cast<double>(traced.timed_to_ns - traced.timed_from_ns) * 1e-9;
    JsonObject by_span;
    double attributed_s = 0.0;
    for (const auto& [name, self_s] :
         window_self_s(wlog, traced.timed_from_ns, traced.timed_to_ns)) {
      by_span.number(name, self_s);
      if (is_layer_span(name)) attributed_s += self_s;
    }
    coverage = attributed_s / traced_s;
    accounting.raw("self_s_by_span", by_span.dump())
        .number("attributed_s", attributed_s)
        .number("unattributed_s", traced_s - attributed_s)
        .number("traced_s", traced_s)
        .number("untraced_s",
                static_cast<double>(traced.timed_requests) / untraced_rate);

    SpanLog plog;
    active_log() = &plog;
    PassResult probe_paper, probe_fleet, probe_misc;
    run_paper_pass(kPaperProbe, args.seed, probe_paper);
    run_fleet_pass(kFleetProbe, args.seed, probe_fleet);
    probe_dump(args.seed, probe_misc);
    const auto own_peak = traced.sim.layer.find("sim.pending_peak");
    const double peak = own_peak != traced.sim.layer.end()
                            ? own_peak->second
                            : probe_fleet.sim.layer.at("sim.pending_peak");
    probe_queue(static_cast<std::size_t>(peak), args.seed, probe_misc);
    active_log() = nullptr;
    for (const PassResult* p : {&probe_paper, &probe_fleet, &probe_misc})
      tally.add(*p);

    const std::map<std::string, SpanAgg> wagg = aggregate(wlog);
    const std::map<std::string, SpanAgg> pagg = aggregate(plog);
    // A layer figure comes from the workload's own traced pass where the
    // workload makes that call, else from the probes.
    std::map<std::string, double> pwork = probe_paper.work;
    for (const PassResult* p : {&probe_fleet, &probe_misc})
      for (const auto& [k, v] : p->work) pwork[k] += v;
    std::map<std::string, double> player = probe_fleet.sim.layer;
    for (const auto& [k, v] : probe_paper.sim.layer) player[k] = v;

    auto pick = [&](const char* span)
        -> std::pair<const SpanAgg*, const std::map<std::string, double>*> {
      if (auto it = wagg.find(span); it != wagg.end())
        return {&it->second, &traced.work};
      if (auto it = pagg.find(span); it != pagg.end())
        return {&it->second, &pwork};
      return {nullptr, nullptr};
    };
    auto span_mean = [&](const char* span) {
      const auto [agg, work] = pick(span);
      return agg == nullptr ? 0.0
                            : agg->total_ns / static_cast<double>(agg->count);
    };
    auto per_unit = [&](const char* span, const char* unit) {
      const auto [agg, work] = pick(span);
      if (agg == nullptr || !work->contains(unit)) return 0.0;
      return agg->total_ns / work->at(unit);
    };
    auto layer = [&](const char* name) {
      auto it = traced.sim.layer.find(name);
      if (it != traced.sim.layer.end()) return it->second;
      auto jt = player.find(name);
      return jt == player.end() ? 0.0 : jt->second;
    };

    metrics = {
        {"faas.deploy_ns", span_mean("faas.deploy"), "ns"},
        {"faas.invoke_cold_ns", span_mean("faas.invoke_cold"), "ns"},
        {"faas.invoke_warm_ns", span_mean("faas.invoke_warm"), "ns"},
        {"faas.cold_starts", layer("faas.cold_starts"), "count"},
        {"faas.replicas_started", layer("faas.replicas_started"), "count"},
        {"faas.rejected", layer("faas.rejected"), "count"},
        {"sim.step_ns", span_mean("sim.step"), "ns"},
        {"sim.events_per_request", layer("sim.events_per_request"), "event/req"},
        {"sim.pending_peak", layer("sim.pending_peak"), "count"},
        {"sim.queue_op_ns", per_unit("sim.queue_op", "sim.queue_ops"), "ns"},
        {"criu.dump_ns_per_page", per_unit("criu.dump", "criu.dump_pages"), "ns/page"},
        {"criu.restore_ns_per_page",
         per_unit("criu.restore", "criu.restore_pages"), "ns/page"},
        {"criu.store_insert_ns_per_page",
         per_unit("criu.store_insert", "criu.store_insert_pages"), "ns/page"},
        {"criu.template_clone_ratio", layer("criu.template_clone_ratio"), "ratio"},
        {"criu.ws_prefetch_ratio", layer("criu.ws_prefetch_ratio"), "ratio"},
        {"criu.pages_restored", layer("criu.pages_restored"), "count"},
        {"core.bake_ns", span_mean("core.bake"), "ns"},
        {"core.start_prebaked_ns", span_mean("core.start_prebaked"), "ns"},
        {"core.start_vanilla_ns", span_mean("core.start_vanilla"), "ns"},
        {"core.reclaim_ns", span_mean("core.reclaim"), "ns"},
        {"core.rts_ms.vanilla", layer("core.rts_ms.vanilla"), "ms"},
        {"core.appinit_ms.vanilla", layer("core.appinit_ms.vanilla"), "ms"},
        {"core.appinit_ms.pb_nowarmup", layer("core.appinit_ms.pb_nowarmup"), "ms"},
        {"core.appinit_ms.pb_warmup", layer("core.appinit_ms.pb_warmup"), "ms"},
        {"os.reap_ns", span_mean("os.reap"), "ns"},
        {"rt.first_request_ns", span_mean("rt.first_request"), "ns"},
        {"rt.first_request_ms", layer("rt.first_request_ms"), "ms"},
        {"funcs.handler_ns", span_mean("funcs.handler"), "ns"},
        {"setup.bake_s", median(bakes), "s"},
        {"setup.warmup_s", median(warms), "s"},
        {"trace.overhead", traced_rate / untraced_rate, "ratio"},
        {"trace.self_coverage", coverage, "ratio"},
    };

    // Simulated figures that are constants of the cost model (the same at
    // every seed): reported here, not as metrics.
    for (const char* name :
         {"criu.restore_sim_ms", "core.clone_ms.vanilla", "core.exec_ms.vanilla"})
      constants.number(name, layer(name));

    if (!args.trace_dir.empty()) {
      const std::string stem = args.trace_dir + "/trace-" + args.workload +
                               "-seed" + std::to_string(args.seed);
      write_trace(stem + ".tsv", wlog, wagg);
      write_trace(stem + "-probes.tsv", plog, pagg);
    }
  } else {
    metrics = {
        {"cold_start_p50_ms", cs50.value, "ms"},
        {"cold_start_p99_ms", cs99.value, "ms"},
        {"request_p50_ms", rq50.value, "ms"},
        {"request_p99_ms", rq99.value, "ms"},
        {"request_p999_ms", rq999.value, "ms"},
        {"cold_start_rate", sim.cold_start_rate, "ratio"},
        {"mem_gb_h", sim.mem_gb_h, "GB.h"},
        {"paper_error_pct", sim.paper_error_pct, "%"},
        {"host_requests_per_s", untraced_rate, "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", rss_mib, "MiB"},
    };
  }

  // --- report: conditions, sample counts, per-pass host figures ------------------
  auto pct_json = [](const Percentile& p) {
    return JsonObject{}
        .number("value", p.value)
        .number("q", p.q)
        .number("samples", static_cast<double>(p.n))
        .number("beyond", static_cast<double>(p.beyond))
        .dump();
  };
  JsonObject sizes;
  for (const auto& [k, v] : passes.front().sizes) sizes.number(k, v);
  correct = correct && tally.failed == 0;
  std::string errs = "[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i)
    errs += (i ? ", " : "") + ("\"" + esc(tally.errors[i]) + "\"");
  errs += "]";
  char fp_hex[24];
  std::snprintf(fp_hex, sizeof fp_hex, "%016" PRIx64, fingerprint);

  JsonObject conditions;
  conditions.number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu", cpu_model())
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("workload", args.workload)
      .number("seed", static_cast<double>(args.seed))
      .number("seconds", args.seconds)
      .number("trace", args.trace ? 1 : 0)
      .raw("sizes", sizes.dump());
  JsonObject report;
  report.raw("conditions", conditions.dump())
      .str("sim_fingerprint", fp_hex)
      .number("passes", static_cast<double>(passes.size()))
      .raw("pass_requests_per_s", json_list(rates))
      .raw("pass_setup_s", json_list(setups))
      .number("timed_requests_per_pass",
              static_cast<double>(passes.front().timed_requests))
      .raw("cold_start_p50_ms", pct_json(cs50))
      .raw("cold_start_p99_ms", pct_json(cs99))
      .raw("request_p50_ms", pct_json(rq50))
      .raw("request_p99_ms", pct_json(rq99))
      .raw("request_p999_ms", pct_json(rq999))
      .number("error_rate", tally.attempted == 0
                                ? 0.0
                                : static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted))
      .raw("errors", errs);
  if (args.trace)
    report.raw("trace_accounting", accounting.dump())
        .raw("layer_constants", constants.dump());
  std::printf("perfbench report: %s\n", report.dump().c_str());

  JsonObject result;
  result.raw("correct", correct ? "true" : "false")
      .number("attempted", static_cast<double>(tally.attempted))
      .number("failed", static_cast<double>(tally.failed))
      .raw("metrics", metrics_json(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
