// Shared pieces of the benchmark program: options, the result a workload
// hands back, an in-memory span recorder, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using WallClock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Nudges one output after the run so the workload's check must fail
  /// (exercised by the benchmark's own tests).
  bool perturb = false;
  /// cluster_replicated only: 0 turns replication off (reference figure).
  bool replicate = true;
  /// Directory for trace files and WAL segments.
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable reasons for every failed check (printed to stderr).
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Seconds since process start; set-up time is read from it.
double SecondsSinceStart();

inline double SecondsBetween(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Bitwise equality of doubles (distinguishes -0.0 / NaN payloads).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// StreamingLocalizer::Shutdown() flips its stop flag without taking the
/// queue mutexes, so a worker between its wait-predicate check and its
/// wait would miss the wakeup and hang the join.  After a Flush() every
/// worker is headed for that wait; this lets it get there first.
void SettleWorkers();

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Population variance (the paper's SLV, Eq. 22, over per-site errors).
double PopulationVariance(const std::vector<double>& values);

/// Query latency percentiles taken per window (a replay round, a second
/// of campaign calls) and reported as the median over windows, so one
/// scheduling hiccup moves one window, not the run's figure.
class WindowedLatency {
 public:
  void Add(double ms) { window_.push_back(ms); }
  /// Closes the current window (windows with no sample are skipped).
  void CloseWindow();
  /// Sets query_p50_ms and query_p99_ms.
  void Report(WorkloadResult& result) const;

 private:
  std::vector<double> window_, p50_, p99_;
};

/// Records spans (name, start, end, parent, request id) in memory and
/// writes them out at the end.  Single-threaded: only the benchmark's load
/// thread records.  When disabled, every call is a no-op and Begin returns
/// kNoSpan.
class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::uint32_t Begin(std::string_view name, std::uint32_t parent = kNoSpan,
                      std::uint64_t request = 0, std::uint64_t items = 1);
  void End(std::uint32_t span);

  /// Durations [s] of every span named `name`, divided by its item count
  /// (per-item cost of a burst span).
  std::vector<double> PerItemSeconds(std::string_view name) const;
  std::vector<double> DurationsSeconds(std::string_view name) const;
  /// Total duration [s] of spans without a parent.
  double TopLevelSeconds() const;
  std::size_t SpanCount() const { return spans_.size(); }

  /// Writes one tab-separated line per span; returns false on I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoSpan;
    std::uint64_t request = 0;
    std::uint64_t items = 1;
    WallClock::time_point start{};
    WallClock::time_point end{};
  };
  std::uint32_t NameId(std::string_view name);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  WallClock::time_point origin_ = WallClock::now();
};

/// RAII span; a null tracer records nothing (untraced rounds of a traced
/// run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             std::uint32_t parent = Tracer::kNoSpan, std::uint64_t request = 0,
             std::uint64_t items = 1)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, request, items)
                   : Tracer::kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t Id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Every per-layer metric the traced run reports, with its unit.  A
/// workload that never calls into a layer reports that layer's metrics as
/// 0 (see README.md).
void SetDefaultLayerMetrics(WorkloadResult& result);

/// The traced-run bookkeeping every workload shares: overhead of traced
/// rounds against untraced ones, span coverage of the traced wall time,
/// span count; and the trace file itself.
void FinishTrace(const Options& options, const Tracer& tracer,
                 const std::vector<double>& traced_round_s,
                 const std::vector<double>& untraced_round_s,
                 double traced_wall_s, WorkloadResult& result);

WorkloadResult RunCampaign(const Options& options);
/// serve_replay (cluster == false) and cluster_replicated (cluster == true).
WorkloadResult RunReplay(const Options& options, bool cluster);

}  // namespace perfbench
