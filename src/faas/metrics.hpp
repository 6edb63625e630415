// Bounded request-metrics aggregation for heavy-traffic runs.
//
// The platform's full request log grows one RequestMetrics per invocation —
// millions of invocations OOM-grow the vector. When
// PlatformConfig::aggregate_request_log is set the platform records each
// request into this fixed-size structure instead: counters plus log-spaced
// latency histograms that answer percentile queries with bounded error
// (~5.9% per bucket step at 40 buckets/decade).
//
// The histogram implementation lives in obs::LogHistogram so the metrics
// registry and this aggregate share one bucketing; the alias keeps the
// original faas spelling working.
#pragma once

#include <cstdint>

#include "obs/histogram.hpp"

namespace prebake::faas {

using LatencyHistogram = obs::LogHistogram;

// Aggregated view of the request stream, one instance per platform. Holds
// everything the full log is queried for in benches (counts, cold-start
// share, latency percentiles) at O(1) memory.
struct RequestAggregate {
  std::uint64_t count = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t retried = 0;        // requests requeued at least once
  std::uint64_t total_retries = 0;  // sum of per-request retry counts
  // Cold starts served by the Vanilla fallback path (failed restore or
  // quarantined snapshot) — answered, but without the prebaked latency.
  // Queue rejections are NOT in here; they never reach a replica and are
  // counted by PlatformStats::rejected / StreamReplayResult.
  std::uint64_t fallback_serves = 0;
  LatencyHistogram total_ms;
  LatencyHistogram service_ms;
  LatencyHistogram queue_wait_ms;
  LatencyHistogram cold_startup_ms;  // startup of cold-start requests only
};

// Per-function slice of the request stream: counters and latency *sums*
// only, no histograms — 2000 deployed functions cost 2000 of these, ~100
// bytes each, where per-function histograms would cost ~50 KiB each. The
// streaming replay keeps one per function (O(functions), not O(requests)).
struct FunctionAggregate {
  std::uint64_t requests = 0;     // answered requests (ok or rejected)
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;     // queue-rejected (503), never served
  std::uint64_t cold_starts = 0;
  std::uint64_t fallback_serves = 0;
  double total_ms_sum = 0.0;      // over served requests
  double total_ms_max = 0.0;
  double queue_wait_ms_sum = 0.0;
  double cold_startup_ms_sum = 0.0;  // over cold starts
};

}  // namespace prebake::faas
