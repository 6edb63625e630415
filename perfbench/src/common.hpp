// Shared pieces of the benchmark: host clock, exact percentiles, the
// in-memory span log used by traced runs, and the per-pass result record
// every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "os/kernel.hpp"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

// --- traced runs -------------------------------------------------------------
// One span per public call the benchmark makes into a layer. Spans are kept
// in memory (name index, host start/end, parent, request id) and written out
// when the run ends; self time is derived afterwards.
struct SpanRecord {
  std::uint32_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the log, -1 = root
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  std::uint32_t intern(const char* name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }
  std::int32_t open(const char* name, std::uint64_t request) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRecord{intern(name), 0, 0,
                                stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(idx);
    spans_.back().start_ns = host_ns();
    return idx;
  }
  void rename(std::int32_t idx, const char* name) {
    spans_[static_cast<std::size_t>(idx)].name = intern(name);
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = host_ns();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

// The active log; null in untraced runs, where a Span costs one branch.
inline SpanLog*& active_log() {
  static SpanLog* log = nullptr;
  return log;
}

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    if (SpanLog* log = active_log()) {
      log_ = log;
      idx_ = log->open(name, request);
    }
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Close under a name decided by the call's outcome (e.g. whether an
  // invoke started a replica).
  void end_as(const char* name) {
    if (log_ != nullptr) log_->rename(idx_, name);
    end();
  }
  void end() {
    if (log_ != nullptr) {
      log_->close(idx_);
      log_ = nullptr;
    }
  }

 private:
  SpanLog* log_ = nullptr;
  std::int32_t idx_ = -1;
};

// --- exact percentiles ---------------------------------------------------------
// Nearest-rank percentile over every sample, at exactly the quantile asked
// for. It only counts as measured (`enough()`) where at least kTailSamples
// samples lie beyond it; a run whose workload is too small for one of its
// percentiles fails rather than report a different quantile.
inline constexpr std::size_t kTailSamples = 10;

struct Percentile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;  // samples it was taken over
  std::size_t beyond = 0;

  bool enough() const { return n > 0 && beyond >= kTailSamples; }
};

inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.n = samples.size();
  if (p.n == 0) return p;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- simulated-output fingerprint ----------------------------------------------
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Restored-state fingerprint: VMA layout plus the digest of every resident
// page, pids and tids excluded, so two restores of one image compare equal.
inline std::uint64_t process_fingerprint(const prebake::os::Kernel& kernel,
                                         prebake::os::Pid pid) {
  Fingerprint fp;
  for (const prebake::os::Vma& vma : kernel.process(pid).mm().vmas()) {
    fp.mix(vma.start);
    fp.mix(vma.length);
    fp.mix(static_cast<std::uint64_t>(vma.prot));
    fp.mix(static_cast<std::uint64_t>(vma.kind));
    const std::uint64_t n = vma.page_count();
    for (std::uint64_t p = 0; p < n; ++p) {
      if (!vma.present[p]) continue;
      fp.mix(p);
      fp.mix(vma.source->page_digest(p));
    }
  }
  return fp.value();
}

// --- one pass of a workload ------------------------------------------------------
// Everything simulated is a pure function of the seed; everything host-timed
// is measured around it.
struct SimOutputs {
  std::vector<double> cold_start_ms;  // ready-to-serve, prebaked starts
  std::vector<double> request_ms;     // arrival -> response
  double cold_start_rate = 0.0;
  double mem_gb_h = 0.0;
  double paper_error_pct = 0.0;
  // Layer-level simulated figures and counters, by metric name.
  std::map<std::string, double> layer;
  std::uint64_t fingerprint = 0;
};

struct PassResult {
  double bake_s = 0.0;    // host: deploy / bake
  double warmup_s = 0.0;  // host: warm-up before the timed run
  std::int64_t timed_from_ns = 0;  // host clock bounds of the timed run
  std::int64_t timed_to_ns = 0;
  std::uint64_t timed_requests = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  SimOutputs sim;
  // Host-independent work counts the traced run divides span time by
  // (e.g. pages restored inside the criu.restore spans).
  std::map<std::string, double> work;
  // Workload sizes, recorded with every result.
  std::map<std::string, double> sizes;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

}  // namespace perfbench
