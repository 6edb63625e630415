// paper_cold_start: the paper's own closed-loop experiment. Each of the three
// functions is started under Vanilla, PB-NOWarmup and PB-Warmup through
// core::StartupService, serves one sample request through its runtime, and
// is reclaimed — one start at a time.
#include "workloads.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "core/prebaker.hpp"
#include "core/startup.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "faas/builder.hpp"
#include "funcs/handlers.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace prebake;

namespace {

enum Tech : int { kVanilla = 0, kNoWarmup = 1, kWarmup = 2 };
constexpr std::array<const char*, 3> kTechName = {"vanilla", "pb_nowarmup",
                                                  "pb_warmup"};

struct PaperFunction {
  const char* label;
  rt::FunctionSpec (*spec)();
  // Fig. 3 ready-to-serve medians from EXPERIMENTS.md (Vanilla, Prebaking).
  double paper_vanilla_ms;
  double paper_prebake_ms;
};

constexpr std::array<PaperFunction, 3> kFunctions = {{
    {"noop", exp::noop_spec, 103.0, 62.0},
    {"markdown", exp::markdown_spec, 100.0, 53.0},
    {"image_resizer", exp::image_resizer_spec, 310.0, 87.0},
}};
constexpr std::size_t kResizer = 2;

// RNG stream ids, disjoint from the per-cycle streams (which use the cycle
// index directly).
constexpr std::uint64_t kBuildStream = std::uint64_t{1} << 40;
constexpr std::uint64_t kBakeStream = (std::uint64_t{1} << 40) + 16;
constexpr std::uint64_t kWarmStream = (std::uint64_t{1} << 40) + 32;
constexpr std::uint64_t kCalibrationStream = std::uint64_t{1} << 41;

struct Testbed {
  sim::Simulation sim;
  os::Kernel kernel;
  funcs::SharedAssets assets;
  core::StartupService startup;
  faas::FunctionBuilder builder;

  Testbed()
      : kernel{sim, exp::testbed_costs()},
        startup{kernel, exp::testbed_runtime(), assets},
        builder{kernel, startup} {}
};

struct Deployed {
  rt::FunctionSpec spec;
  std::array<std::optional<core::BakedSnapshot>, 3> snapshots;  // by Tech
  funcs::Request request;
  std::string expected_body;
};

core::ReplicaProcess start(Testbed& bed, const Deployed& fn, int tech,
                           sim::Rng rng) {
  if (tech == kVanilla) {
    Span s{"core.start_vanilla"};
    return bed.startup.start_vanilla(fn.spec, std::move(rng));
  }
  const core::BakedSnapshot& snap = *fn.snapshots[static_cast<std::size_t>(tech)];
  core::PrebakedStartOptions options;
  options.restore.fs_prefix = snap.fs_prefix;
  Span s{"core.start_prebaked"};
  return bed.startup.start_prebaked(fn.spec, snap.images, options,
                                    std::move(rng));
}

std::uint64_t stream(std::uint64_t base, std::size_t f, int tech) {
  return base + f * 4 + static_cast<std::uint64_t>(tech);
}

// Build every paper function, bake its snapshots for `techs`, warm the
// page cache the way the paper's testbed keeps it across repetitions, and
// compute the expected response through funcs directly.
void deploy(Testbed& bed, std::uint64_t seed, std::initializer_list<int> techs,
            std::array<Deployed, kFunctions.size()>& fns) {
  for (std::size_t f = 0; f < kFunctions.size(); ++f) {
    Deployed& d = fns[f];
    const std::uint64_t build_seed = sim::splitmix64(seed, kBuildStream + f);
    d.spec = bed.builder.build(kFunctions[f].spec(), std::nullopt,
                               sim::Rng{build_seed})
                 .spec;
    for (int tech : techs) {
      core::PrebakeConfig cfg;
      cfg.policy = tech == kWarmup ? core::SnapshotPolicy::warmup(1)
                                   : core::SnapshotPolicy::no_warmup();
      core::Prebaker prebaker{bed.startup};
      Span s{"core.bake"};
      d.snapshots[static_cast<std::size_t>(tech)] = prebaker.bake(
          d.spec, cfg,
          sim::Rng{sim::splitmix64(seed, stream(kBakeStream, f, tech))});
    }
    os::FileSystem& fs = bed.kernel.fs();
    fs.warm(d.spec.runtime_binary);
    fs.warm(d.spec.classpath_archive);
    if (d.spec.init_io_bytes > 0 && fs.exists(d.spec.init_io_path))
      fs.warm(d.spec.init_io_path);

    d.request = funcs::sample_request(d.spec.handler_id);
    std::unique_ptr<funcs::Handler> handler =
        funcs::make_handler(d.spec.handler_id, bed.assets);
    Span s{"funcs.handler"};
    d.expected_body = handler->handle(d.request).body;
  }
}

}  // namespace

double fig3_error_pct(const PaperShape& shape, std::uint64_t seed) {
  Testbed bed;
  std::array<Deployed, kFunctions.size()> fns;
  deploy(bed, seed, {kNoWarmup}, fns);
  double worst = 0.0;
  std::uint64_t start_no = 0;
  for (std::size_t f = 0; f < fns.size(); ++f) {
    const int reps = f == kResizer ? shape.reps_resizer : shape.reps_light;
    std::array<std::vector<double>, 2> ready_ms;
    for (int rep = 0; rep < reps; ++rep)
      for (int tech : {kVanilla, kNoWarmup}) {
        core::ReplicaProcess replica = start(
            bed, fns[f], tech,
            sim::Rng{sim::splitmix64(seed, kCalibrationStream + ++start_no)});
        ready_ms[static_cast<std::size_t>(tech)].push_back(
            replica.breakdown.total.to_millis());
        bed.startup.reclaim(replica);
      }
    const double paper[2] = {kFunctions[f].paper_vanilla_ms,
                             kFunctions[f].paper_prebake_ms};
    for (std::size_t t = 0; t < 2; ++t)
      worst = std::max(worst,
                       std::abs(median(ready_ms[t]) - paper[t]) / paper[t]);
  }
  return 100.0 * worst;
}

void run_paper_pass(const PaperShape& shape, std::uint64_t seed,
                    PassResult& out) {
  const int reps_light = shape.reps_light;
  const int reps_resizer = shape.reps_resizer;
  out.sizes["functions"] = kFunctions.size();
  out.sizes["techniques"] = kTechName.size();
  out.sizes["reps_noop_markdown"] = reps_light;
  out.sizes["reps_image_resizer"] = reps_resizer;

  Testbed bed;
  std::array<Deployed, kFunctions.size()> fns;

  // --- set-up: build, bake, expected bodies -----------------------------------
  const std::int64_t t_setup = host_ns();
  deploy(bed, seed, {kNoWarmup, kWarmup}, fns);
  out.bake_s = static_cast<double>(host_ns() - t_setup) * 1e-9;

  // --- warm-up: one throwaway cycle per cell, plus the restore check --------
  // The check: a prebaked start must leave exactly the process content a
  // plain eager restore of the same images produces. It is the benchmark's
  // own work, so its host time is left out of warmup_s.
  const std::int64_t t_warm = host_ns();
  std::int64_t check_ns = 0;
  double restore_ms = 0.0;
  double restored_pages = 0.0;
  int restores = 0;
  for (std::size_t f = 0; f < fns.size(); ++f) {
    Deployed& d = fns[f];
    for (int tech : {kVanilla, kNoWarmup, kWarmup}) {
      core::ReplicaProcess rep = start(
          bed, d, tech,
          sim::Rng{sim::splitmix64(seed, stream(kWarmStream, f, tech))});
      ++out.attempted;
      if (tech != kVanilla) {
        const std::int64_t t_check = host_ns();
        const core::BakedSnapshot& snap = *d.snapshots[static_cast<std::size_t>(tech)];
        const std::uint64_t started = process_fingerprint(bed.kernel, rep.pid);
        criu::RestoreOptions ropts;
        ropts.fs_prefix = snap.fs_prefix;
        criu::RestoreResult direct;
        const sim::TimePoint r0 = bed.sim.now();
        {
          Span s{"criu.restore"};
          direct = criu::Restorer{bed.kernel}.restore(snap.images, ropts);
        }
        restore_ms += (bed.sim.now() - r0).to_millis();
        restored_pages += static_cast<double>(direct.pages_restored);
        ++restores;
        const std::uint64_t restored = process_fingerprint(bed.kernel, direct.pid);
        if (restored != started)
          out.fail(std::string{"restored state of "} + kFunctions[f].label + "/" +
                   kTechName[static_cast<std::size_t>(tech)] +
                   " differs from a direct eager restore");
        {
          Span s{"os.reap"};
          bed.kernel.kill_process(direct.pid);
          bed.kernel.reap(direct.pid);
        }
        check_ns += host_ns() - t_check;
      }
      const funcs::Response res = rep.runtime->handle(d.request);
      if (!res.ok() || res.body != d.expected_body)
        out.fail(std::string{"warm-up response mismatch for "} + kFunctions[f].label);
      bed.startup.reclaim(rep);
    }
  }
  out.warmup_s = static_cast<double>(host_ns() - t_warm - check_ns) * 1e-9;
  out.work["criu.restore_pages"] = restored_pages;
  out.sim.layer["criu.restore_sim_ms"] = restore_ms / restores;
  out.sim.layer["criu.pages_restored"] = restored_pages / restores;

  // --- the timed closed loop ------------------------------------------------------
  // Simulated phase samples (StartupBreakdown; Vanilla phases only where
  // they are nonzero) and first-request service times.
  std::vector<double> clone_ms, exec_ms, rts_ms, first_request_ms;
  std::array<std::vector<double>, kTechName.size()> appinit_ms;
  double mem_byte_s = 0.0;
  std::uint64_t cycle = 0;
  out.timed_from_ns = host_ns();
  for (std::size_t f = 0; f < fns.size(); ++f) {
    const Deployed& d = fns[f];
    const int reps = f == kResizer ? reps_resizer : reps_light;
    for (int rep = 0; rep < reps; ++rep) {
      for (int tech : {kVanilla, kNoWarmup, kWarmup}) {
        ++cycle;
        Span cycle_span{"bench.cycle", cycle};
        const sim::TimePoint t0 = bed.sim.now();
        core::ReplicaProcess replica =
            start(bed, d, tech, sim::Rng{sim::splitmix64(seed, cycle)});
        const core::StartupBreakdown& b = replica.breakdown;
        ++out.attempted;
        if (b.fell_back_to_vanilla)
          out.fail(std::string{"prebaked start fell back to Vanilla: "} +
                   kFunctions[f].label);
        const auto t = static_cast<std::size_t>(tech);
        if (tech == kVanilla) {
          clone_ms.push_back(b.clone_time.to_millis());
          exec_ms.push_back(b.exec_time.to_millis());
          rts_ms.push_back(b.rts_time.to_millis());
        } else {
          out.sim.cold_start_ms.push_back(b.total.to_millis());
        }
        appinit_ms[t].push_back(b.appinit_stacked().to_millis());

        funcs::Response res;
        const sim::TimePoint s0 = bed.sim.now();
        {
          Span s{"rt.first_request"};
          res = replica.runtime->handle(d.request);
        }
        first_request_ms.push_back((bed.sim.now() - s0).to_millis());
        const sim::Duration total = bed.sim.now() - t0;
        out.sim.request_ms.push_back(total.to_millis());
        {
          Span s{"bench.check"};
          if (!res.ok() || res.body != d.expected_body)
            out.fail(std::string{"response mismatch for "} + kFunctions[f].label +
                     "/" + kTechName[t]);
          mem_byte_s +=
              static_cast<double>(
                  bed.kernel.process(replica.pid).mm().resident_bytes()) *
              total.to_seconds();
        }
        Span s{"core.reclaim"};
        bed.startup.reclaim(replica);
      }
    }
  }
  out.timed_to_ns = host_ns();
  out.timed_requests = cycle;

  // --- simulated outputs --------------------------------------------------------
  out.sim.cold_start_rate = 1.0;  // every cycle of the closed loop starts cold
  out.sim.mem_gb_h = mem_byte_s / 1e9 / 3600.0;
  auto& L = out.sim.layer;
  L["core.clone_ms.vanilla"] = median(std::move(clone_ms));
  L["core.exec_ms.vanilla"] = median(std::move(exec_ms));
  L["core.rts_ms.vanilla"] = median(std::move(rts_ms));
  for (std::size_t t = 0; t < kTechName.size(); ++t)
    L[std::string{"core.appinit_ms."} + kTechName[t]] =
        median(std::move(appinit_ms[t]));
  L["rt.first_request_ms"] = median(std::move(first_request_ms));
}

}  // namespace perfbench
