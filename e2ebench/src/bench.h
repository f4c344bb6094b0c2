// Shared plumbing of the end-to-end benchmark driver: run options, clocks,
// order statistics, the stopwatch, the allocation counter, and the result
// line every workload prints.
//
// Every timing here is taken from outside the library, around calls into
// its public functions; nothing in src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;       // path to the dgcli binary (serve workload)
  std::string work_dir;  // scratch directory inside the checkout
};

using Clock = std::chrono::steady_clock;

/// Seconds since the process started (the first call, made first thing in
/// main(), pins the origin).
double since_start_s();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Derives an independent 64-bit seed from two values (splitmix64 finalizer).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The end-to-end timings are reported at the fastest of the run's
/// per-operation samples (the least time; the highest rate). Every sample
/// of one metric does the same fixed work, so the host can only add time to
/// it. On a shared host, slow phases of the machine last seconds and cover
/// anything from none to all of a run, so a run's median measures the host;
/// the fastest sample is the program's own speed in the host's least
/// disturbed interval and repeats best from run to run.
constexpr double kFastTimeQuantile = 0.0;
constexpr double kFastRateQuantile = 1.0;

/// Allocation counter: every global operator new in this binary bumps it.
std::uint64_t allocations();

/// The benchmark's own clock around one call into a layer: starts at
/// construction, ms() is the time since.
class Stopwatch {
 public:
  double ms() const { return ms_since(t0_); }

 private:
  Clock::time_point t0_ = Clock::now();
};

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Accumulates the result line: correctness, attempted/failed operation
/// counts and the metrics of the selected mode.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  // check failures, printed to stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check (the run is then not correct).
  void fail(const std::string& what);
  /// Records `what` as a failed check unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  std::string to_json() const;
};

/// Exact kernel.* rows of the program's profiler, summed over the profiled
/// sections (its op rows charge non-op time to the next op, so only the
/// kernel rows are used).
class KernelTotals {
 public:
  /// Adds the profiler's current kernel rows (call after Profiler::stop).
  void add_snapshot();
  /// Achieved GFLOP/s of one kernel ("matmul", "affine", "lstm_gates").
  double gflops(const std::string& kernel) const;

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> rows_;  // flops, ns
};

/// Peak resident set of this process in MB.
double self_peak_rss_mb();

/// Online CPUs (at least 1).
int cpu_count();

/// Pins the intra-op pool size (the library's DG_THREADS), capped at the
/// number of online CPUs so no workload asks for more threads than exist.
int pin_threads(int wanted);

/// Workload entry points (each fills `r` with the metrics of its mode).
void run_train(const Options& o, bool dp, Result& r);
void run_generate(const Options& o, Result& r);
void run_serve(const Options& o, Result& r);
/// Negative controls: every output check must pass on clean data and fail
/// on a corrupted copy. Returns the number of controls that misbehaved.
int run_selftest();

}  // namespace bench
