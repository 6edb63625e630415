// Layered base+delta snapshots (DESIGN.md §6k): one warmed runtime template
// serves every function.
//
// Sweeps {monolithic, layered} x {1, 4, 16, 64 functions per base} x three
// runtime archetypes (calibrated JVM, interpreter-heavy CPython-like, AOT
// Go-like). Each cell models one node restoring every function once from a
// remote registry:
//
//   monolithic — every function's snapshot is self-contained; each first
//                restore on the node ships the full image and replays every
//                page (the platform's default path).
//   layered    — functions are split deltas over the runtime's shared base
//                snapshot. The node's first restore materializes the pinned
//                base template; every later function COW-clones the base and
//                ships + replays only its app delta.
//
// `--check` is the regression gate: bit-identical JSON at 1 and 4 engine
// threads, and for each runtime
//   * warm-base new-function first-restore p95 <= 40% of monolithic
//     (fleets of >= 4 functions)
//   * 64-function registry bytes <= 35% of monolithic
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/report.hpp"
#include "faas/builder.hpp"
#include "stats/descriptive.hpp"

using namespace prebake;

namespace {

struct Cell {
  const char* mode;  // "monolithic" | "layered"
  exp::RuntimeKind kind;
  int functions;
};

constexpr exp::RuntimeKind kRuntimes[] = {exp::RuntimeKind::kJava8,
                                          exp::RuntimeKind::kPython3,
                                          exp::RuntimeKind::kGo114};
constexpr int kFleets[] = {1, 4, 16, 64};

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (const char* mode : {"monolithic", "layered"})
    for (const exp::RuntimeKind kind : kRuntimes)
      for (const int n : kFleets) cells.push_back(Cell{mode, kind, n});
  return cells;
}

struct CellResult {
  const char* mode = "";
  const char* runtime = "";
  int functions = 0;
  double base_restore_ms = 0.0;  // layered: base materialization (fn 1 pays)
  double first_fn_ms = 0.0;      // function 1's restore (cold node)
  double warm_p95_ms = 0.0;      // functions 2..N: first restore, base warm
  std::uint64_t registry_bytes = 0;  // total remote transfer for the cell
  std::uint64_t payload_bytes = 0;   // sum of snapshot page payloads
  std::uint64_t shared_pages = 0;    // dump-side pages deduped into the base
  std::uint64_t delta_pages = 0;     // restore-side pages replayed from deltas
  std::uint64_t base_clones = 0;     // restores served by base-template clone
  std::vector<double> warm_ms;
};

rt::FunctionSpec function_spec(exp::RuntimeKind kind, int i) {
  rt::FunctionSpec spec = exp::cross_runtime_spec(kind, 2);
  spec.name += "-f" + std::to_string(i);
  // Distinct app memory per function: the base stays shared, deltas do not.
  spec.memory_seed ^= 0x51ED0000ULL + static_cast<std::uint64_t>(i) * 0x9E37ULL;
  return spec;
}

CellResult run_cell(const Cell& cell) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  funcs::SharedAssets assets;
  core::StartupService startup{kernel, exp::runtime_profile(cell.kind), assets};
  faas::FunctionBuilder builder{kernel, startup};
  const bool layered = std::strcmp(cell.mode, "layered") == 0;

  CellResult out;
  out.mode = cell.mode;
  out.runtime = exp::runtime_kind_name(cell.kind);
  out.functions = cell.functions;

  // Bake the shared base (layered only), then every function.
  core::BakedSnapshot base;
  if (layered) {
    rt::FunctionSpec base_spec;
    base_spec.name = std::string{"rt-base-"} + out.runtime;
    base_spec.handler_id = "noop";
    base_spec.runtime_binary = exp::cross_runtime_spec(cell.kind, 1).runtime_binary;
    core::PrebakeConfig cfg;
    cfg.store_root = "/registry/";
    faas::BuildResult built = builder.build(base_spec, cfg, sim::Rng{11});
    base = std::move(*built.snapshot);
  }
  std::vector<core::BakedSnapshot> snaps;
  for (int i = 0; i < cell.functions; ++i) {
    core::PrebakeConfig cfg;
    cfg.store_root = "/registry/";
    if (layered) cfg.split_base = &base;
    faas::BuildResult built = builder.build(function_spec(cell.kind, i), cfg,
                                            sim::Rng{100 + i});
    snaps.push_back(std::move(*built.snapshot));
    out.payload_bytes += snaps.back().stats.payload_bytes;
    out.shared_pages += snaps.back().shared_with_base;
  }

  // The node starts cold: the bake-side page-cache warmth does not count.
  kernel.fs().drop_caches();

  criu::PageStore store;
  const std::uint64_t clones_before = store.stats().base_template_clones;
  for (int i = 0; i < cell.functions; ++i) {
    const core::BakedSnapshot& snap = snaps[i];
    criu::RestoreOptions opts;
    opts.fs_prefix = snap.fs_prefix;
    opts.remote_fetch = true;
    criu::Restorer restorer{kernel};
    const sim::TimePoint t0 = sim.now();
    criu::RestoreResult r;
    if (layered) {
      opts.page_store = &store;
      opts.store_key = snap.fs_prefix;
      const criu::ImageLink lower[] = {
          {&base.images, base.fs_prefix, base.fs_prefix}};
      r = restorer.restore(snap.images, opts, lower);
    } else {
      r = restorer.restore(snap.images, opts);
    }
    const double ms = (sim.now() - t0).to_millis();
    if (i == 0) {
      out.first_fn_ms = ms;
      if (layered) out.base_restore_ms = ms;  // fn 1 carries the base freeze
    } else {
      out.warm_ms.push_back(ms);
    }
    out.registry_bytes += r.remote_bytes;
    out.delta_pages += r.delta_pages_restored;
  }
  out.base_clones = store.stats().base_template_clones - clones_before;
  if (!out.warm_ms.empty())
    out.warm_p95_ms = stats::percentile(out.warm_ms, 0.95);
  return out;
}

std::vector<CellResult> run_sweep(int threads) {
  const std::vector<Cell> cells = make_cells();
  const exp::ParallelRunner runner{threads};
  std::vector<CellResult> results{cells.size()};
  runner.for_each(cells.size(),
                  [&](std::size_t i) { results[i] = run_cell(cells[i]); });
  return results;
}

std::string to_json(const std::vector<CellResult>& results) {
  std::string out = "{\n  \"cells\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"mode\": \"%s\", \"runtime\": \"%s\", \"functions\": %d, "
        "\"first_fn_ms\": %.3f, \"warm_p95_ms\": %.3f, "
        "\"registry_bytes\": %llu, \"payload_bytes\": %llu, "
        "\"shared_pages\": %llu, \"delta_pages\": %llu, "
        "\"base_clones\": %llu}%s\n",
        r.mode, r.runtime, r.functions, r.first_fn_ms, r.warm_p95_ms,
        static_cast<unsigned long long>(r.registry_bytes),
        static_cast<unsigned long long>(r.payload_bytes),
        static_cast<unsigned long long>(r.shared_pages),
        static_cast<unsigned long long>(r.delta_pages),
        static_cast<unsigned long long>(r.base_clones),
        i + 1 < results.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

void write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "layered_store: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(body.c_str(), f);
  std::fclose(f);
}

void print_table(const std::vector<CellResult>& results) {
  exp::TextTable table{{"Mode", "Runtime", "Fns", "First fn", "Warm p95",
                        "Registry", "Payload", "Shared pages", "Base clones"}};
  for (const CellResult& r : results)
    table.add_row({r.mode, r.runtime, std::to_string(r.functions),
                   exp::fmt_ms(r.first_fn_ms),
                   r.warm_ms.empty() ? "-" : exp::fmt_ms(r.warm_p95_ms),
                   exp::fmt_mib(r.registry_bytes), exp::fmt_mib(r.payload_bytes),
                   std::to_string(r.shared_pages),
                   std::to_string(r.base_clones)});
  std::printf("%s\n", table.to_string().c_str());
}

const CellResult* find_cell(const std::vector<CellResult>& results,
                            const char* mode, const char* runtime, int fns) {
  for (const CellResult& r : results)
    if (std::strcmp(r.mode, mode) == 0 && std::strcmp(r.runtime, runtime) == 0 &&
        r.functions == fns)
      return &r;
  return nullptr;
}

// The perf gates; returns the number of violations (0 = pass).
int check_gates(const std::vector<CellResult>& results) {
  int failures = 0;
  for (const exp::RuntimeKind kind : kRuntimes) {
    const char* rt_name = exp::runtime_kind_name(kind);
    for (const int fns : kFleets) {
      if (fns < 4) continue;
      const CellResult* mono = find_cell(results, "monolithic", rt_name, fns);
      const CellResult* lay = find_cell(results, "layered", rt_name, fns);
      if (mono == nullptr || lay == nullptr) continue;
      if (lay->warm_p95_ms > 0.40 * mono->warm_p95_ms) {
        std::printf("FAIL: %s/%d warm-base first-restore p95 %.3f ms > 40%% "
                    "of monolithic %.3f ms\n",
                    rt_name, fns, lay->warm_p95_ms, mono->warm_p95_ms);
        ++failures;
      }
    }
    const CellResult* mono64 = find_cell(results, "monolithic", rt_name, 64);
    const CellResult* lay64 = find_cell(results, "layered", rt_name, 64);
    if (mono64 != nullptr && lay64 != nullptr) {
      if (lay64->registry_bytes * 100 > mono64->registry_bytes * 35) {
        std::printf("FAIL: %s/64 layered registry bytes %llu > 35%% of "
                    "monolithic %llu\n",
                    rt_name,
                    static_cast<unsigned long long>(lay64->registry_bytes),
                    static_cast<unsigned long long>(mono64->registry_bytes));
        ++failures;
      } else {
        std::printf("%s/64: layered registry %.1f%% of monolithic, warm p95 "
                    "%.1f%% of monolithic\n",
                    rt_name,
                    100.0 * static_cast<double>(lay64->registry_bytes) /
                        static_cast<double>(mono64->registry_bytes),
                    100.0 * lay64->warm_p95_ms / mono64->warm_p95_ms);
      }
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_layered.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: layered_store [--out FILE] [--check]\n");
      return 2;
    }
  }

  std::printf("== Layered base+delta snapshots: one warmed runtime template "
              "serves every function (DESIGN.md §6k) ==\n\n");

  if (check) {
    // Determinism gate: the sweep must serialize bit-identically whether the
    // cells run inline or across four engine threads.
    const std::vector<CellResult> serial = run_sweep(1);
    const std::vector<CellResult> parallel = run_sweep(4);
    const std::string a = to_json(serial);
    const std::string b = to_json(parallel);
    print_table(serial);
    int failures = check_gates(serial);
    if (a != b) {
      std::printf("FAIL: sweep is not bit-identical across engine threads\n");
      ++failures;
    }
    write_file(out, a);
    std::printf("wrote %s\n", out.c_str());
    std::printf("%s\n", failures == 0 ? "CHECK PASSED" : "CHECK FAILED");
    return failures == 0 ? 0 : 1;
  }

  const std::vector<CellResult> results = run_sweep(0);
  print_table(results);
  write_file(out, to_json(results));
  std::printf("wrote %s\n", out.c_str());
  std::printf(
      "\nShape: function 1 materializes the pinned base template (one full\n"
      "base pull per node); functions 2..N COW-clone the warm base and ship\n"
      "+ replay only their app delta — the bigger the fleet per base, the\n"
      "closer the registry bill gets to deltas-only.\n");
  return 0;
}
