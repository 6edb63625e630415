// fleet_cold: open-loop Zipf arrivals on the simulated clock,
// driven through faas::Platform by the benchmark's own arrival chain so that
// every response passes through the benchmark's InvokeCallback.
#include "workloads.hpp"

#include <functional>
#include <memory>
#include <optional>

#include "criu/page_store.hpp"
#include "criu/paging.hpp"
#include "exp/calibration.hpp"
#include "exp/scale.hpp"
#include "faas/platform.hpp"
#include "faas/trace_source.hpp"
#include "funcs/handlers.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace perfbench {

using namespace prebake;

namespace {
constexpr double kRateHz = 20.0;
const sim::Duration kIdle = sim::Duration::seconds(60);
}  // namespace

void run_fleet_pass(const FleetShape& shape, std::uint64_t seed,
                    PassResult& out) {
  out.sizes["functions"] = shape.functions;
  out.sizes["nodes"] = shape.nodes;
  out.sizes["rate_hz"] = kRateHz;
  out.sizes["idle_s"] = kIdle.to_seconds();
  out.sizes["requests"] = static_cast<double>(shape.requests);
  out.sizes["warmup_requests"] = static_cast<double>(shape.warmup_requests);

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.idle_timeout = kIdle;
  cfg.page_store = true;
  cfg.layered = true;
  cfg.paging = criu::PagingPolicy::ws_prefetch();
  cfg.aggregate_request_log = true;  // keeps the platform's own log bounded
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg, seed};
  for (std::uint32_t i = 0; i < shape.nodes; ++i)
    platform.resources().add_node("w" + std::to_string(i + 1), 64ull << 30, 0);

  // --- set-up: deploy (bake) every function ----------------------------------
  const std::int64_t t_setup = host_ns();
  std::vector<std::string> names;
  names.reserve(shape.functions);
  for (std::uint32_t rank = 0; rank < shape.functions; ++rank) {
    rt::FunctionSpec spec = exp::scale_function_spec(rank);
    names.push_back(spec.name);
    Span s{"faas.deploy"};
    platform.deploy(std::move(spec), faas::StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  }
  out.bake_s = static_cast<double>(host_ns() - t_setup) * 1e-9;

  // Expected bodies per handler, computed through funcs directly.
  funcs::SharedAssets assets;
  std::map<std::string, std::string> expected;
  std::vector<const std::string*> body_of(shape.functions);
  std::vector<funcs::Request> request_of(shape.functions);
  for (std::uint32_t rank = 0; rank < shape.functions; ++rank) {
    const std::string& id = platform.registry().get(names[rank]).spec.handler_id;
    request_of[rank] = funcs::sample_request(id);
    auto it = expected.find(id);
    if (it == expected.end()) {
      std::unique_ptr<funcs::Handler> h = funcs::make_handler(id, assets);
      Span s{"funcs.handler"};
      it = expected.emplace(id, h->handle(request_of[rank]).body).first;
    }
    body_of[rank] = &it->second;
  }

  // Page-store insert cost on this workload's own snapshot digests (traced
  // runs only: it is a layer measurement, not part of the workload).
  if (active_log() != nullptr) {
    criu::PageStore store;
    for (const std::string& name : names) {
      const faas::RegisteredFunction& fn = platform.registry().get(name);
      const criu::ImageDir& images =
          platform.snapshots().get(name, fn.policy).images;
      const auto& pages = images.decoded().pages;
      if (!pages) continue;
      const std::span<const std::uint64_t> digests = pages->digests();
      Span s{"criu.store_insert"};
      store.insert(digests);
      store.pin(digests);
      s.end();
      out.work["criu.store_insert_pages"] += static_cast<double>(digests.size());
    }
  }

  // --- the open loop ------------------------------------------------------------
  faas::ZipfTraceConfig wl;
  wl.functions = shape.functions;
  wl.zipf_s = 1.0;
  wl.rate_hz = kRateHz;
  wl.max_events = shape.requests;
  wl.duration = sim::Duration::seconds(std::int64_t{1} << 33);
  wl.seed = sim::splitmix64(seed, 0x5CA1E);
  faas::ZipfTraceSource source{wl};
  std::map<std::string, std::uint32_t> rank_of;
  for (std::uint32_t r = 0; r < shape.functions; ++r) rank_of[names[r]] = r;

  std::vector<std::uint8_t> answers(shape.requests, 0);
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t cold_served = 0;
  std::uint64_t served = 0;
  bool exhausted = false;
  bool arrival_fired = false;
  const sim::TimePoint start = sim.now();

  auto on_response = [&](std::uint64_t id, std::uint32_t rank,
                         const funcs::Response& res,
                         const faas::RequestMetrics& m) {
    Span s{"bench.check", id + 1};
    ++answered;
    if (answers[id]++ != 0) {
      out.fail("request " + std::to_string(id) + " answered twice");
      return;
    }
    if (!res.ok()) {
      out.fail("request " + std::to_string(id) + " got status " +
               std::to_string(res.status));
      return;
    }
    if (res.body != *body_of[rank])
      out.fail("request " + std::to_string(id) + ": body mismatch");
    if (m.fallback)
      out.fail("request " + std::to_string(id) + ": Vanilla fallback start");
    ++served;
    out.sim.request_ms.push_back(m.total.to_millis());
    if (m.cold_start) {
      ++cold_served;
      out.sim.cold_start_ms.push_back(m.startup.to_millis());
    }
  };

  // One arrival is scheduled ahead at a time; each firing schedules its
  // successor, then invokes.
  std::function<void(std::uint64_t, faas::TraceEvent)> fire;
  auto schedule_next = [&] {
    if (std::optional<faas::TraceEvent> nxt = source.next()) {
      const std::uint64_t id = sent++;
      sim.schedule_at(start + nxt->at,
                      [&fire, id, ev = std::move(*nxt)]() mutable {
                        fire(id, std::move(ev));
                      });
    } else {
      exhausted = true;
    }
  };
  fire = [&](std::uint64_t id, faas::TraceEvent ev) {
    arrival_fired = true;
    std::uint32_t rank = 0;
    {
      Span s{"bench.arrival", id + 1};
      schedule_next();
      rank = rank_of.at(ev.function);
    }
    const std::uint64_t started_before = platform.stats().replicas_started;
    Span s{"faas.invoke", id + 1};
    platform.invoke(ev.function, request_of[rank],
                    [&on_response, id, rank](const funcs::Response& res,
                                             const faas::RequestMetrics& m) {
                      on_response(id, rank, res, m);
                    });
    s.end_as(platform.stats().replicas_started != started_before
                 ? "faas.invoke_cold"
                 : "faas.invoke_warm");
  };

  const std::int64_t t_warm = host_ns();
  std::int64_t t_run = 0;
  std::uint64_t steps = 0;
  std::uint64_t timed_from = 0;
  std::size_t pending_peak = 0;
  schedule_next();
  if (shape.warmup_requests == 0) t_run = host_ns();
  while (!exhausted || answered < sent) {
    if (t_run == 0 && sent > shape.warmup_requests) {
      t_run = host_ns();
      timed_from = sent - 1;
    }
    arrival_fired = false;
    Span s{"sim.step"};
    if (!sim.step()) break;
    s.end_as(arrival_fired ? "sim.step_arrival" : "sim.step");
    ++steps;
    pending_peak = std::max(pending_peak, sim.pending_events());
  }
  const std::int64_t t_end = host_ns();

  out.warmup_s = static_cast<double>(t_run - t_warm) * 1e-9;
  out.timed_from_ns = t_run;
  out.timed_to_ns = t_end;
  out.timed_requests = sent - timed_from;
  out.attempted += sent;

  for (std::uint64_t id = 0; id < sent; ++id)
    if (answers[id] != 1) {
      out.fail("request " + std::to_string(id) + " answered " +
               std::to_string(answers[id]) + " times");
      break;
    }

  const faas::PlatformStats& st = platform.stats();
  out.sim.cold_start_rate =
      served == 0 ? 0.0
                  : static_cast<double>(cold_served) / static_cast<double>(served);
  out.sim.mem_gb_h = platform.fleet_mem_byte_seconds() / 1e9 / 3600.0;
  auto& L = out.sim.layer;
  L["faas.cold_starts"] = static_cast<double>(st.cold_starts);
  L["faas.replicas_started"] = static_cast<double>(st.replicas_started);
  L["faas.rejected"] = static_cast<double>(st.rejected);
  L["sim.events_per_request"] =
      static_cast<double>(steps) / static_cast<double>(sent);
  L["sim.pending_peak"] = static_cast<double>(pending_peak);
  if (st.layered_starts > 0)
    L["criu.template_clone_ratio"] = static_cast<double>(st.base_template_clones) /
                                     static_cast<double>(st.layered_starts);
  const std::uint64_t prebaked_cold = st.replicas_started - st.restore_fallbacks;
  if (prebaked_cold > 0)
    L["criu.ws_prefetch_ratio"] = static_cast<double>(st.ws_prefetch_starts) /
                                  static_cast<double>(prebaked_cold);
  if (st.restore_fallbacks > 0)
    out.fail(std::to_string(st.restore_fallbacks) + " restore fallbacks");
}

}  // namespace perfbench
