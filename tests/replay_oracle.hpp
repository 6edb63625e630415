// Differential oracle for faas::replay_trace_stream: the schedule-
// everything-up-front replay. Every arrival of a materialized trace is put
// on the event queue before the first step, then the platform runs until
// all responses land.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "faas/platform.hpp"
#include "faas/trace.hpp"

namespace prebake::reference {

struct UpfrontReplay {
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_rejected = 0;
  std::uint64_t responses_fallback = 0;
  sim::Duration makespan;
};

inline UpfrontReplay replay_upfront(faas::Platform& platform,
                                    std::span<const faas::TraceEvent> events) {
  struct State {
    UpfrontReplay result;
    std::size_t answered = 0;
  };
  auto state = std::make_shared<State>();
  sim::Simulation& sim = platform.kernel().sim();
  const sim::TimePoint start = sim.now();
  for (const faas::TraceEvent& e : events) {
    sim.schedule_at(start + e.at, [state, &platform, function = e.function] {
      platform.invoke(
          function,
          funcs::sample_request(
              platform.registry().get(function).spec.handler_id),
          [state](const funcs::Response& res, const faas::RequestMetrics& m) {
            ++state->answered;
            if (!res.ok()) {
              ++state->result.responses_rejected;
              return;
            }
            ++state->result.responses_ok;
            if (m.fallback) ++state->result.responses_fallback;
          });
    });
  }
  while (state->answered < events.size() && sim.step()) {
  }
  state->result.makespan = sim.now() - start;
  return state->result;
}

}  // namespace prebake::reference
