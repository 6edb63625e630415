#include "faas/trace.hpp"

#include <gtest/gtest.h>

#include "exp/calibration.hpp"
#include "faas/trace_source.hpp"

namespace prebake::faas {
namespace {

TEST(TraceCsv, ParseBasic) {
  const auto events = parse_trace_csv("0,noop\n12.5,markdown\n3,noop\n");
  ASSERT_EQ(events.size(), 3u);
  // Sorted by offset.
  EXPECT_EQ(events[0].at.to_millis(), 0.0);
  EXPECT_EQ(events[1].at.to_millis(), 3.0);
  EXPECT_EQ(events[2].at.to_millis(), 12.5);
  EXPECT_EQ(events[2].function, "markdown");
}

TEST(TraceCsv, CommentsAndBlanksIgnored) {
  const auto events =
      parse_trace_csv("# header\n\n  \n5,fn # trailing comment\r\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].function, "fn");
}

TEST(TraceCsv, WhitespaceAroundNameTrimmed) {
  const auto events = parse_trace_csv("1,  spaced-name \n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].function, "spaced-name");
}

TEST(TraceCsv, MalformedLinesThrowWithLineNumber) {
  try {
    parse_trace_csv("0,ok\nnocomma\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_trace_csv("abc,fn\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace_csv("-5,fn\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace_csv("5,\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace_csv("5x,fn\n"), std::invalid_argument);
}

TEST(TraceCsv, FormatParseRoundTrip) {
  std::vector<TraceEvent> events{
      {sim::Duration::millis_f(0.25), "a"},
      {sim::Duration::millis(100), "b"},
      {sim::Duration::seconds(2), "a"},
  };
  const auto back = parse_trace_csv(format_trace_csv(events));
  EXPECT_EQ(back, events);
}

std::vector<TraceEvent> poisson(double rate_hz, sim::Duration duration,
                                std::uint64_t seed) {
  PoissonTraceSource source{"fn", rate_hz, duration, sim::Rng{seed}};
  return drain(source);
}

std::vector<TraceEvent> diurnal(double base_rate_hz, double peak_rate_hz,
                                sim::Duration period, sim::Duration duration,
                                std::uint64_t seed) {
  DiurnalTraceSource source{"fn",   base_rate_hz, peak_rate_hz,
                            period, duration,     seed};
  return drain(source);
}

TEST(TraceGen, PoissonCountNearExpectation) {
  const auto events = poisson(50.0, sim::Duration::seconds(20), 7);
  // Expect ~1000 events; 4 sigma ~ 126.
  EXPECT_GT(events.size(), 870u);
  EXPECT_LT(events.size(), 1130u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].at, events[i - 1].at);
}

TEST(TraceGen, PoissonDeterministicPerSeed) {
  const auto a = poisson(5, sim::Duration::seconds(10), 3);
  EXPECT_EQ(a, poisson(5, sim::Duration::seconds(10), 3));
  EXPECT_NE(a, poisson(5, sim::Duration::seconds(10), 4));
}

TEST(TraceGen, PoissonValidation) {
  // The message names the offending rate.
  try {
    poisson(0.0, sim::Duration::seconds(1), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rate_hz=0"), std::string::npos) << msg;
  }
  EXPECT_THROW(poisson(-1.0, sim::Duration::seconds(1), 1),
               std::invalid_argument);
}

TEST(TraceGen, DiurnalPeaksWherePhaseSaysSo) {
  // Period 100 s, trough at t=0, peak at t=50 s.
  const auto events = diurnal(1.0, 60.0, sim::Duration::seconds(100),
                              sim::Duration::seconds(100), 11);
  std::size_t trough = 0, peak = 0;
  for (const TraceEvent& e : events) {
    const double s = e.at.to_seconds();
    if (s < 20.0 || s > 80.0) ++trough;
    if (s >= 30.0 && s <= 70.0) ++peak;
  }
  EXPECT_GT(peak, trough * 2);
}

TEST(TraceGen, DiurnalValidation) {
  // A peak below the base must be rejected, and the message must name both
  // offending values — a silent clamp would distort the generated rate.
  try {
    diurnal(5.0, 1.0, sim::Duration::seconds(1), sim::Duration::seconds(1), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("base_rate_hz=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("peak_rate_hz=1"), std::string::npos) << msg;
  }
  EXPECT_THROW(
      diurnal(1.0, 2.0, sim::Duration{}, sim::Duration::seconds(1), 1),
      std::invalid_argument);
}

TEST(TraceReplay, RunsAgainstPlatform) {
  {
    sim::Simulation sim;
    os::Kernel kernel{sim, exp::testbed_costs()};
    Platform platform{kernel, exp::testbed_runtime(), PlatformConfig{}, 17};
    platform.resources().add_node("n", 8ull << 30);
    platform.deploy(exp::noop_spec(), StartMode::kVanilla);
    platform.deploy(exp::markdown_spec(), StartMode::kVanilla);

    // Spacing wider than a cold start, so each function needs exactly one
    // replica (tighter spacing would legitimately scale out mid-start-up).
    std::vector<TraceEvent> events;
    for (int i = 0; i < 10; ++i)
      events.push_back({sim::Duration::millis(500 * i),
                        i % 2 == 0 ? "noop" : "markdown-render"});
    VectorTraceSource source{events};
    const StreamReplayResult result = replay_trace_stream(platform, source);
    EXPECT_EQ(result.events, 10u);
    EXPECT_EQ(result.responses_ok, 10u);
    EXPECT_EQ(result.responses_rejected, 0u);
    EXPECT_EQ(platform.request_log().size(), 10u);
    // Two functions, two cold starts.
    EXPECT_EQ(platform.stats().cold_starts, 2u);
  }
  {
    // Open-loop Poisson arrivals: ~200 expected; all answered, none
    // rejected, memory tracked.
    sim::Simulation sim;
    os::Kernel kernel{sim, exp::testbed_costs()};
    Platform platform{kernel, exp::testbed_runtime(), PlatformConfig{}, 99};
    platform.resources().add_node("n", 8ull << 30);
    platform.deploy(exp::noop_spec(), StartMode::kVanilla);
    PoissonTraceSource source{"noop", 20.0, sim::Duration::seconds(10),
                              sim::Rng{11}};
    const StreamReplayResult result = replay_trace_stream(platform, source);
    EXPECT_GT(result.responses_ok, 150u);
    EXPECT_EQ(result.responses_ok, result.events);
    EXPECT_EQ(result.responses_rejected, 0u);
    EXPECT_EQ(platform.request_log().size(), result.responses_ok);
    EXPECT_GT(platform.fleet_mem_byte_seconds(), 0.0);
    EXPECT_GE(result.makespan.to_seconds(), 9.0);
  }
}

}  // namespace
}  // namespace prebake::faas
