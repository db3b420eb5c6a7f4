// Benchmark program: runs one workload for a fixed wall time, checks its
// outputs, and prints one JSON line with every metric by name and unit.
//
//   nomloc_perfbench --workload <campaign|serve_replay|cluster_replicated>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--perturb 0|1] [--replicate 0|1] [--out-dir DIR]
//
// Exit codes: 0 = checks passed, 1 = a check failed (the result line says
// correct=false), 2 = bad arguments, 3 = the watchdog fired.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/dispatch.h"

namespace perfbench {
namespace {

// Initialised during static initialisation, i.e. before main: set-up time
// is measured from (almost exactly) process start.
const WallClock::time_point kProcessStart = WallClock::now();

// A hang anywhere (a lost wakeup in a worker pool, a stuck flush) must end
// the run with a non-zero exit well inside the caller's time limit.
constexpr double kWatchdogSeconds = 170.0;

class Watchdog {
 public:
  Watchdog() : thread_([this] { Run(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline =
        kProcessStart + std::chrono::duration_cast<WallClock::duration>(
                            std::chrono::duration<double>(kWatchdogSeconds));
    if (!cv_.wait_until(lock, deadline, [this] { return done_; })) {
      std::fprintf(stderr, "perfbench: watchdog fired after %.0f s\n",
                   kWatchdogSeconds);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: nomloc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--perturb 0|1] [--replicate 0|1] "
               "[--out-dir DIR]\n");
  return 2;
}

bool ParseBool(const std::string& text, bool& out) {
  if (text == "0") return out = false, true;
  if (text == "1") return out = true, true;
  return false;
}

// Peak resident set of this process image.  VmHWM starts afresh at exec,
// unlike getrusage's ru_maxrss, which would also count a launcher's peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

void PrintResult(const WorkloadResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : result.metrics) {
    if (!first) line += ", ";
    first = false;
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

double SecondsSinceStart() { return SecondsBetween(kProcessStart, WallClock::now()); }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0 && options.seconds <= 120.0;
      } else if (flag == "--trace") {
        have_trace = ParseBool(value, options.trace);
      } else if (flag == "--perturb") {
        if (!ParseBool(value, options.perturb)) return Usage();
      } else if (flag == "--replicate") {
        if (!ParseBool(value, options.replicate)) return Usage();
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return Usage();

  Watchdog watchdog;
  // The machine the figures come from, for the record (stderr).
  std::fprintf(stderr,
               "perfbench: env nproc=%u simd=%s compiler=%s %s build=%s\n",
               std::thread::hardware_concurrency(),
               nomloc::simd::TargetName(nomloc::simd::ActiveTarget()),
#if defined(__clang__)
               "clang", __clang_version__,
#elif defined(__GNUC__)
               "gcc", __VERSION__,
#else
               "unknown", "",
#endif
               PERFBENCH_BUILD_TYPE);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  WorkloadResult result;
  try {
    if (options.workload == "campaign") {
      result = RunCampaign(options);
    } else if (options.workload == "serve_replay") {
      result = RunReplay(options, /*cluster=*/false);
    } else if (options.workload == "cluster_replicated") {
      result = RunReplay(options, /*cluster=*/true);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!options.trace) result.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const std::string& problem : result.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}
