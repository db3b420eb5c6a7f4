#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.h"

namespace perfbench {

void SettleWorkers() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PopulationVariance(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / double(values.size());
  double squares = 0.0;
  for (double v : values) squares += (v - mean) * (v - mean);
  return squares / double(values.size());
}

void WindowedLatency::CloseWindow() {
  if (window_.empty()) return;
  p50_.push_back(Quantile(window_, 0.5));
  p99_.push_back(Quantile(window_, 0.99));
  window_.clear();
}

void WindowedLatency::Report(WorkloadResult& result) const {
  result.Set("query_p50_ms", Median(p50_), "ms");
  result.Set("query_p99_ms", Median(p99_), "ms");
}

std::uint32_t Tracer::NameId(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return std::uint32_t(i);
  names_.emplace_back(name);
  return std::uint32_t(names_.size() - 1);
}

std::uint32_t Tracer::Begin(std::string_view name, std::uint32_t parent,
                            std::uint64_t request, std::uint64_t items) {
  if (!enabled_) return kNoSpan;
  Span span;
  span.name = NameId(name);
  span.parent = parent;
  span.request = request;
  span.items = std::max<std::uint64_t>(items, 1);
  span.start = WallClock::now();
  spans_.push_back(span);
  return std::uint32_t(spans_.size() - 1);
}

void Tracer::End(std::uint32_t span) {
  if (!enabled_ || span == kNoSpan) return;
  spans_[span].end = WallClock::now();
}

std::vector<double> Tracer::DurationsSeconds(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (names_[span.name] == name)
      out.push_back(SecondsBetween(span.start, span.end));
  return out;
}

std::vector<double> Tracer::PerItemSeconds(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (names_[span.name] == name)
      out.push_back(SecondsBetween(span.start, span.end) /
                    double(span.items));
  return out;
}

double Tracer::TopLevelSeconds() const {
  double total = 0.0;
  for (const Span& span : spans_)
    if (span.parent == kNoSpan) total += SecondsBetween(span.start, span.end);
  return total;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\trequest\tname\titems\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto ns = [&](WallClock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count();
    };
    out << i << '\t';
    if (span.parent == kNoSpan)
      out << '-';
    else
      out << span.parent;
    out << '\t' << span.request << '\t' << names_[span.name] << '\t'
        << span.items << '\t' << ns(span.start) << '\t' << ns(span.end)
        << '\n';
  }
  return bool(out);
}

void SetDefaultLayerMetrics(WorkloadResult& result) {
  static const struct {
    const char* name;
    const char* unit;
  } kLayerMetrics[] = {
      {"eval.measure_epoch_us", "us"},
      {"channel.make_link_us", "us"},
      {"channel.sample_batch_us", "us"},
      {"dsp.pdp_of_batch_us", "us"},
      {"channel.frames", "count"},
      {"dsp.frames", "count"},
      {"core.locate_us", "us"},
      {"localization.judge_us", "us"},
      {"localization.solve_us", "us"},
      {"lp.iterations", "count"},
      {"serving.wire.decode_ns_per_packet", "ns"},
      {"serving.service.ingest_us", "us"},
      {"serving.service.flush_wait_ms", "ms"},
      {"serving.service.queue_wait_p50_us", "us"},
      {"serving.service.queue_wait_p99_us", "us"},
      {"serving.service.service_us", "us"},
      {"serving.store.upsert_us", "us"},
      {"serving.store.snapshot_us", "us"},
      {"serving.store.live_bytes", "B"},
      {"serving.store.resident_bytes", "B"},
      {"serving.store.bytes_per_session", "B"},
      {"serving.loadgen.late_p99_us", "us"},
      {"cluster.ingest_us", "us"},
      {"cluster.flush_ms", "ms"},
      {"serving.wal.append_us", "us"},
      {"serving.wal.sync_ms", "ms"},
      {"serving.wal.appends_per_epoch", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage_pct", "%"},
      {"trace.spans", "count"},
  };
  for (const auto& metric : kLayerMetrics)
    result.Set(metric.name, 0.0, metric.unit);
}

void FinishTrace(const Options& options, const Tracer& tracer,
                 const std::vector<double>& traced_round_s,
                 const std::vector<double>& untraced_round_s,
                 double traced_wall_s, WorkloadResult& result) {
  const double traced = Median(traced_round_s);
  const double untraced = Median(untraced_round_s);
  if (untraced > 0.0)
    result.Set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%");
  if (traced_wall_s > 0.0)
    result.Set("trace.coverage_pct",
               100.0 * tracer.TopLevelSeconds() / traced_wall_s, "%");
  result.Set("trace.spans", double(tracer.SpanCount()), "count");
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".tsv";
  if (!tracer.WriteTsv(path)) result.Fail("cannot write trace file " + path);
}

}  // namespace perfbench
