// The benchmark's workloads. Each pass builds a fresh simulated world from
// the seed, sets it up, and runs a fixed amount of work; everything on the
// simulated clock is a pure function of the seed.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

// paper_cold_start: cycles per (function, technique) cell.
struct PaperShape {
  int reps_light = 0;    // noop, markdown
  int reps_resizer = 0;  // image resizer
};

// fleet_cold: open-loop Zipf(s=1) arrivals at 20 Hz over `functions` scale
// functions, 60 s idle reclaim, page store + layered + WS prefetch.
struct FleetShape {
  std::uint32_t functions = 0;
  std::uint32_t nodes = 0;
  std::uint64_t requests = 0;
  // Arrivals served before the host clock starts (template
  // materialization, first-start recordings); their host time is set-up.
  std::uint64_t warmup_requests = 0;
};

void run_paper_pass(const PaperShape& shape, std::uint64_t seed,
                    PassResult& out);
// The paper's Fig. 3 check: the largest relative error of the six
// ready-to-serve medians (Vanilla and PB-NOWarmup per function) against the
// paper's values, in percent. Simulated clock only.
double fig3_error_pct(const PaperShape& shape, std::uint64_t seed);
void run_fleet_pass(const FleetShape& shape, std::uint64_t seed,
                    PassResult& out);

// Layer probes for the traced run: isolated calls whose per-unit host cost
// the workloads do not exercise on their own. Spans go to the active log;
// unit counts to out.work.
void probe_dump(std::uint64_t seed, PassResult& out);
void probe_queue(std::size_t pending, std::uint64_t seed, PassResult& out);

}  // namespace perfbench
