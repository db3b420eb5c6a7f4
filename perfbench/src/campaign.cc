// campaign: the paper's evaluation, eval::RunLocalization over the Lab and
// Lobby testbeds with a nomadic AP, repeated in whole rounds (one call per
// testbed, each on its own seed) for the run's wall time.  CSI synthesis
// and PDP extraction dominate; the SP solve is a small share.
#include <cmath>

#include "bench.h"
#include "channel/csi_model.h"
#include "common/rng.h"
#include "dsp/cir.h"
#include "eval/runner.h"
#include "eval/scenario.h"

namespace perfbench {
namespace {

using nomloc::geometry::Vec2;
using nomloc::geometry::Distance;

constexpr std::size_t kTrials = 2;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kPacketsPerBatch = 50;

std::uint64_t CallSeed(std::uint64_t seed, std::uint64_t round,
                       std::uint64_t testbed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + round * 0xbf58476d1ce4e5b9ull +
                    testbed * 0x94d049bb133111ebull + 1;
  x ^= x >> 31;
  x *= 0xd6e8feb86cd9a4b1ull;
  return x ^ (x >> 29);
}

struct Testbed {
  explicit Testbed(nomloc::eval::Scenario s) : scenario(std::move(s)) {}

  nomloc::eval::Scenario scenario;
  Vec2 centroid;
  double diagonal_m = 0.0;
  /// Per-site sum / count of trial errors over the whole run.
  std::vector<double> site_error_sum;
  std::vector<std::size_t> site_error_count;
  /// Round 0's trial errors, [site][trial], for the serial replay check.
  std::vector<std::vector<double>> first_round_errors;
};

}  // namespace

WorkloadResult RunCampaign(const Options& options) {
  WorkloadResult result;
  Tracer tracer(options.trace);
  if (options.trace) SetDefaultLayerMetrics(result);

  std::vector<Testbed> testbeds;
  testbeds.emplace_back(nomloc::eval::LabScenario());
  testbeds.emplace_back(nomloc::eval::LobbyScenario());
  for (Testbed& bed : testbeds) {
    const auto& boundary = bed.scenario.env.Boundary();
    bed.centroid = boundary.Centroid();
    const auto box = boundary.BoundingBox();
    bed.diagonal_m = Distance(box.lo, box.hi);
    bed.site_error_sum.assign(bed.scenario.test_sites.size(), 0.0);
    bed.site_error_count.assign(bed.scenario.test_sites.size(), 0);
  }

  nomloc::eval::RunConfig base;
  base.deployment = nomloc::eval::Deployment::kNomadic;
  base.packets_per_batch = kPacketsPerBatch;
  base.trials = kTrials;
  base.threads = kThreads;
  auto config_for = [&](std::uint64_t round, std::size_t testbed) {
    nomloc::eval::RunConfig config = base;
    config.seed = CallSeed(options.seed, round, testbed);
    return config;
  };

  // Warm-up on a seed no timed round uses: fills the propagation cache and
  // FFT plans, which every later call would otherwise pay once.
  for (std::size_t t = 0; t < testbeds.size(); ++t) {
    auto warm = nomloc::eval::RunLocalization(testbeds[t].scenario,
                                              config_for(~0ull, t));
    if (!warm.ok()) throw std::runtime_error(warm.status().ToString());
  }

  // CSI frames behind one epoch: one batch per static AP plus one batch per
  // dwell of the nomadic AP.
  const std::size_t frames_per_epoch =
      (testbeds[0].scenario.static_aps.size() - 1) * kPacketsPerBatch +
      kPacketsPerBatch * base.dwell_count;

  // Call latency in one-second windows (about 20 calls each, so a window's
  // p99 is its slowest call).
  WindowedLatency latency;
  std::size_t latency_window = 0;
  std::vector<double> errors, baseline_errors;
  std::vector<double> traced_round_s, untraced_round_s;
  double traced_wall_s = 0.0;
  std::uint64_t epochs = 0, round = 0;
  const double setup_s = SecondsSinceStart();
  const auto start = WallClock::now();
  while (SecondsBetween(start, WallClock::now()) < options.seconds) {
    // Traced runs alternate traced and untraced rounds so the tracing
    // overhead is measured in the same process under the same load.
    const bool traced_round = options.trace && round % 2 == 1;
    const auto round_start = WallClock::now();
    for (std::size_t t = 0; t < testbeds.size(); ++t) {
      Testbed& bed = testbeds[t];
      const auto config = config_for(round, t);
      const auto call_start = WallClock::now();
      nomloc::common::Result<nomloc::eval::RunResult> run =
          nomloc::common::Internal("unset");
      {
        ScopedSpan span(traced_round ? &tracer : nullptr,
                        "eval.run_localization", Tracer::kNoSpan,
                        round * 2 + t);
        run = nomloc::eval::RunLocalization(bed.scenario, config);
      }
      const auto call_end = WallClock::now();
      const auto window = std::size_t(SecondsBetween(start, call_end));
      if (window != latency_window) {
        latency.CloseWindow();
        latency_window = window;
      }
      latency.Add(1e3 * SecondsBetween(call_start, call_end));
      if (!run.ok()) {
        result.Fail("RunLocalization: " + run.status().ToString());
        return result;
      }
      if (round == 0) {
        bed.first_round_errors.clear();
        for (const auto& site : run->sites)
          bed.first_round_errors.push_back(site.trial_errors_m);
      }
      // SLV recomputed from the call's own per-site trial errors.
      std::vector<double> site_means;
      for (std::size_t s = 0; s < run->sites.size(); ++s) {
        const auto& trial_errors = run->sites[s].trial_errors_m;
        double sum = 0.0;
        for (double e : trial_errors) {
          sum += e;
          errors.push_back(e);
          baseline_errors.push_back(
              Distance(bed.scenario.test_sites[s], bed.centroid));
          if (!std::isfinite(e) || e < 0.0 || e > bed.diagonal_m)
            result.Fail("trial error outside the floor's extent");
          bed.site_error_sum[s] += e;
          ++bed.site_error_count[s];
        }
        site_means.push_back(sum / double(trial_errors.size()));
        epochs += trial_errors.size();
      }
      if (!SameBits(PopulationVariance(site_means), run->slv))
        result.Fail("RunResult::slv differs from the SLV recomputed from its "
                    "per-site errors");
    }
    (traced_round ? traced_round_s : untraced_round_s)
        .push_back(SecondsBetween(round_start, WallClock::now()));
    if (traced_round) traced_wall_s += traced_round_s.back();
    ++round;
  }
  result.attempted = epochs;

  if (options.perturb)  // one estimate bit of the timed run
    testbeds[0].first_round_errors[0][0] =
        std::nextafter(testbeds[0].first_round_errors[0][0], 1e9);

  // Serial MeasureEpoch + Locate on the same forked RNG streams must give
  // round 0's threaded estimates bit for bit, inside the floor polygon.
  const auto serial_start = WallClock::now();
  nomloc::common::Rng split_rng(options.seed ^ 0x5eedc5a1ull);
  std::uint64_t split_frames = 0, lp_iterations = 0;
  std::vector<double> judge_s, solve_s;
  std::uint64_t request = 0;
  for (std::size_t t = 0; t < testbeds.size(); ++t) {
    const Testbed& bed = testbeds[t];
    const auto config = config_for(0, t);
    nomloc::core::NomLocConfig engine_config = config.engine;
    engine_config.bandwidth_hz = config.channel.bandwidth_hz;
    auto engine = nomloc::core::NomLocEngine::Create(
        bed.scenario.env.Boundary(), engine_config);
    if (!engine.ok()) throw std::runtime_error(engine.status().ToString());
    const nomloc::channel::CsiSimulator sim(bed.scenario.env, config.channel);
    const nomloc::common::Rng rng(config.seed);
    for (std::size_t s = 0; s < bed.scenario.test_sites.size(); ++s) {
      const Vec2 site = bed.scenario.test_sites[s];
      nomloc::common::Rng site_rng = rng.Fork(s + 1);
      for (std::size_t trial = 0; trial < kTrials; ++trial, ++request) {
        ScopedSpan epoch_span(&tracer, "eval.epoch", Tracer::kNoSpan, request);
        nomloc::common::Result<std::vector<nomloc::localization::Anchor>>
            anchors = nomloc::common::Internal("unset");
        {
          ScopedSpan span(&tracer, "eval.measure_epoch", epoch_span.Id(),
                          request);
          anchors = nomloc::eval::MeasureEpoch(bed.scenario, config, site,
                                               site_rng);
        }
        if (!anchors.ok()) throw std::runtime_error(anchors.status().ToString());
        nomloc::core::LocateRequest locate;
        locate.anchors = *anchors;
        nomloc::common::Result<nomloc::core::LocateResponse> located =
            nomloc::common::Internal("unset");
        {
          ScopedSpan span(&tracer, "core.locate", epoch_span.Id(), request);
          located = engine->Locate(locate);
        }
        if (!located.ok()) throw std::runtime_error(located.status().ToString());
        judge_s.push_back(located->timings.judge_s);
        solve_s.push_back(located->timings.solve_s);
        lp_iterations += located->lp_iterations;
        const Vec2 estimate = located->estimate.position;
        if (!bed.scenario.env.Boundary().Contains(estimate))
          result.Fail("estimate outside the floor polygon");
        if (!SameBits(Distance(estimate, site), bed.first_round_errors[s][trial]))
          result.Fail("serial MeasureEpoch + Locate differs from the threaded "
                      "RunLocalization estimate");
        if (!options.trace) continue;
        // The channel / dsp split, timed on the static-AP links of this
        // site with the benchmark's own RNG stream.
        for (std::size_t ap = 1; ap < bed.scenario.static_aps.size(); ++ap) {
          std::uint32_t parent = epoch_span.Id();
          nomloc::channel::LinkModel link = [&] {
            ScopedSpan span(&tracer, "channel.make_link", parent, request);
            return sim.MakeLink(site, bed.scenario.static_aps[ap]);
          }();
          std::vector<nomloc::dsp::CsiFrame> frames;
          {
            ScopedSpan span(&tracer, "channel.sample_batch", parent, request,
                            kPacketsPerBatch);
            frames = link.SampleBatch(kPacketsPerBatch, split_rng);
          }
          double pdp = 0.0;
          {
            ScopedSpan span(&tracer, "dsp.pdp_of_batch", parent, request,
                            kPacketsPerBatch);
            pdp = nomloc::dsp::PdpOfBatch(frames, config.channel.bandwidth_hz,
                                          config.engine.pdp);
          }
          if (!(pdp > 0.0)) result.Fail("non-positive PDP on a static link");
          split_frames += frames.size();
        }
      }
    }
  }
  const double serial_wall_s = SecondsBetween(serial_start, WallClock::now());

  // Accuracy: pooled over the run; the baseline always guesses the floor's
  // centroid.
  const double median_error = Median(errors);
  const double baseline_median = Median(baseline_errors);
  if (!(median_error < baseline_median))
    result.Fail("median error is not below the centroid-guess baseline");
  double slv_sum = 0.0;
  for (const Testbed& bed : testbeds) {
    std::vector<double> site_means;
    for (std::size_t s = 0; s < bed.site_error_sum.size(); ++s)
      site_means.push_back(bed.site_error_sum[s] /
                           double(bed.site_error_count[s]));
    slv_sum += PopulationVariance(site_means);
  }

  if (!options.trace) {
    result.Set("setup_s", setup_s, "s");
    // Rates from the median round, so a stall in a few rounds does not
    // move them.
    const double epochs_per_round = double(epochs) / double(round);
    const double round_s = Median(untraced_round_s);
    result.Set("epochs_per_s", epochs_per_round / round_s, "epoch/s");
    result.Set("packets_per_s",
               epochs_per_round * double(frames_per_epoch) / round_s,
               "packet/s");
    latency.CloseWindow();
    latency.Report(result);
    result.Set("median_error_m", median_error, "m");
    result.Set("slv_m2", slv_sum / double(testbeds.size()), "m2");
    return result;
  }

  const double us = 1e6;
  result.Set("eval.measure_epoch_us",
             us * Median(tracer.DurationsSeconds("eval.measure_epoch")), "us");
  result.Set("channel.make_link_us",
             us * Median(tracer.DurationsSeconds("channel.make_link")), "us");
  result.Set("channel.sample_batch_us",
             us * Median(tracer.DurationsSeconds("channel.sample_batch")),
             "us");
  result.Set("dsp.pdp_of_batch_us",
             us * Median(tracer.DurationsSeconds("dsp.pdp_of_batch")), "us");
  result.Set("channel.frames", double(split_frames), "count");
  result.Set("dsp.frames", double(split_frames), "count");
  result.Set("core.locate_us",
             us * Median(tracer.DurationsSeconds("core.locate")), "us");
  result.Set("localization.judge_us", us * Median(judge_s), "us");
  result.Set("localization.solve_us", us * Median(solve_s), "us");
  result.Set("lp.iterations", double(lp_iterations), "count");
  FinishTrace(options, tracer, traced_round_s, untraced_round_s,
              traced_wall_s + serial_wall_s, result);
  return result;
}

}  // namespace perfbench
