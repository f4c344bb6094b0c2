// train-gcut / train-dp-gcut: DoppelGanger::fit_more on 400 GCUT-shaped
// objects at the `dgcli train` default sizes, timed one call of one
// iteration at a time by the benchmark's own clock.
#include <sstream>

#include "bench.h"
#include "checks.h"
#include "core/package.h"
#include "fleet.h"
#include "models.h"
#include "nn/autograd.h"
#include "obs/profile.h"
#include "probes.h"
#include "synth/synth.h"

namespace bench {

using dg::core::DoppelGanger;
using dg::core::TrainStats;
namespace nn = dg::nn;

namespace {

constexpr int kObjects = 400;
constexpr int kPrefixCalls = 3;  // untimed warm-up calls, also the retrained prefix
constexpr int kGenerateCheck = 64;

dg::core::DoppelGangerConfig train_config(const dg::data::Schema& schema,
                                          std::uint64_t seed, bool dp) {
  dg::core::DoppelGangerConfig cfg = cli_default_config(schema, seed);
  if (dp) cfg.dp = dg::core::DpOptions{1.0f, 1.0f, 8};  // 8 microbatches of 4 rows
  return cfg;
}

}  // namespace

void run_train(const Options& o, bool dp, Result& r) {
  const int threads = pin_threads(dp ? 1 : 4);
  const Stopwatch synth;
  const dg::synth::SynthData d = dg::synth::make_gcut({.n = kObjects, .t_max = 50, .seed = o.seed});
  const double synth_ms = synth.ms();

  DoppelGanger model(d.schema, train_config(d.schema, o.seed, dp));
  const std::vector<nn::Matrix> initial = generator_values(model);
  for (int i = 0; i < kPrefixCalls; ++i) {
    r.check(check_train_stats(model.fit_more(d.data, 1)).empty(), "warm-up losses");
  }
  const std::string prefix_package = package_bytes(model);
  const double setup_s = since_start_s();

  // Timed loop. In a traced run, odd calls run with the profiler and the op
  // observer on and even calls without, so the overhead is measured in the
  // same run.
  std::vector<double> iter_ms, traced_ms;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t call = 0; ms_since(t0) < o.seconds * 1e3; ++call) {
    const bool traced = o.trace && (call % 2 == 1);
    TrainStats st;
    const Clock::time_point c0 = Clock::now();
    if (traced) {
      dg::obs::Profiler::start();
      {
        nn::OpObserverGuard observe([](const char*, int, int) {});
        st = model.fit_more(d.data, 1);
      }
      traced_ms.push_back(ms_since(c0));
      dg::obs::Profiler::stop();
    } else {
      st = model.fit_more(d.data, 1);
      iter_ms.push_back(ms_since(c0));
    }
    ++r.attempted;
    const std::string e = check_train_stats(st);
    if (!e.empty()) r.fail("fit_more call " + std::to_string(call) + ": " + e);
  }

  // ---- output checks
  const std::string moved = check_all_moved(initial, generator_values(model));
  r.check(moved.empty(), "training left a generator parameter unchanged: " + moved);
  {
    std::istringstream is(package_bytes(model));
    auto loaded = dg::core::load_package(is);
    const std::uint64_t gen_seed = o.seed ^ 0x5eedULL;
    model.reseed(gen_seed);
    loaded->reseed(gen_seed);
    const dg::data::Dataset a = model.generate(kGenerateCheck);
    const dg::data::Dataset b = loaded->generate(kGenerateCheck);
    const std::string same = compare_objects(a, b);
    r.check(same.empty(), "save/load/generate differs from in-memory generate: " + same);
    const std::string bounds = check_objects(d.schema, a);
    r.check(bounds.empty(), "generated object out of schema: " + bounds);
  }
  {
    // The warm-up prefix retrained from scratch at one thread must give a
    // byte-identical package (bytes never depend on DG_THREADS).
    pin_threads(1);
    DoppelGanger again(d.schema, train_config(d.schema, o.seed, dp));
    for (int i = 0; i < kPrefixCalls; ++i) again.fit_more(d.data, 1);
    const std::string same = compare_bytes(prefix_package, package_bytes(again));
    r.check(same.empty(), "prefix retrained at DG_THREADS=1 differs: " + same);
    pin_threads(threads);
  }

  if (!o.trace) {
    r.set("setup_s", setup_s, "s");
    const double latency_ms = quantile(iter_ms, kFastTimeQuantile);
    r.set("latency_ms", latency_ms, "ms");
    // Training throughput: one batch of real series per call, at the same
    // fastest call.
    r.set("series_per_s", model.config().batch * 1e3 / latency_ms, "series/s");
    r.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }
  // The tail of the untraced calls: reported without a bound, since on a
  // shared host it follows the machine's slow phases.
  r.set("tail_ms", quantile(iter_ms, 0.9), "ms");
  r.set("data.synth_ms", synth_ms, "ms");
  r.set("obs.trace_overhead_pct",
        100.0 * (median(traced_ms) - median(iter_ms)) / median(iter_ms), "%");
  layer_probes(o, model, d.data, r);
  fleet_probe(o, model, series_lengths(d.data), r);
}

}  // namespace bench
