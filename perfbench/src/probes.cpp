// Layer probes for the traced run: isolated calls into criu and sim whose
// per-unit host cost no workload exposes through a public call of its own.
#include "workloads.hpp"

#include <optional>

#include "core/startup.hpp"
#include "criu/dump.hpp"
#include "exp/calibration.hpp"
#include "faas/builder.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace prebake;

// Dumper::dump of a Vanilla-started replica of each paper function.
void probe_dump(std::uint64_t seed, PassResult& out) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  funcs::SharedAssets assets;
  core::StartupService startup{kernel, exp::testbed_runtime(), assets};
  faas::FunctionBuilder builder{kernel, startup};
  const rt::FunctionSpec specs[] = {exp::noop_spec(), exp::markdown_spec(),
                                    exp::image_resizer_spec()};
  std::uint64_t stream = 0;
  for (const rt::FunctionSpec& raw : specs) {
    const rt::FunctionSpec spec =
        builder.build(raw, std::nullopt, sim::Rng{sim::splitmix64(seed, ++stream)})
            .spec;
    core::ReplicaProcess rep =
        startup.start_vanilla(spec, sim::Rng{sim::splitmix64(seed, ++stream)});
    criu::DumpResult dumped;
    {
      Span s{"criu.dump"};
      dumped = criu::Dumper{kernel}.dump(rep.pid);
    }
    const auto& pages = dumped.images.decoded().pages;
    out.work["criu.dump_pages"] +=
        pages ? static_cast<double>(pages->page_count()) : 0.0;
  }
}

// A no-op schedule_at + step against a queue holding `pending` events, the
// occupancy the workload itself peaked at.
void probe_queue(std::size_t pending, std::uint64_t seed, PassResult& out) {
  constexpr std::uint64_t kOps = 200'000;
  constexpr std::int64_t kHorizonNs = 600'000'000'000;  // 600 s of timers
  sim::Simulation sim;
  sim::Rng rng{sim::splitmix64(seed, 0x51u)};
  auto offset = [&] {
    return sim::Duration::nanos(
        1 + static_cast<std::int64_t>(rng.next_below(kHorizonNs)));
  };
  for (std::size_t i = 0; i < pending; ++i) sim.schedule_in(offset(), [] {});
  Span s{"sim.queue_op"};
  for (std::uint64_t i = 0; i < kOps; ++i) {
    sim.schedule_in(offset(), [] {});
    sim.step();
  }
  s.end();
  out.work["sim.queue_ops"] += static_cast<double>(kOps);
}

}  // namespace perfbench
