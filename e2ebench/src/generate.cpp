// generate-wwt: offline generation from a WWT-shaped package (T=280, S=10,
// fixed-length series) through DoppelGanger::generate (what `dgcli
// generate` runs) and through a 32-slot SlotSampler on the tape path. No
// TCP and no JSON: this isolates the generation kernels and the tape
// executor. Every series runs full length, so slot recycling gains nothing.
#include <memory>

#include "bench.h"
#include "checks.h"
#include "core/package.h"
#include "fleet.h"
#include "models.h"
#include "nn/rng.h"
#include "obs/profile.h"
#include "probes.h"
#include "serve/sampler.h"
#include "synth/synth.h"

namespace bench {

using dg::core::DoppelGanger;
using dg::serve::SeriesJob;
using dg::serve::SeriesResult;
using dg::serve::SlotSampler;
namespace nn = dg::nn;

namespace {

constexpr int kTrainObjects = 128;
constexpr int kTrainIterations = 2;
constexpr int kWidth = 32;          // slot-array width
constexpr int kGenerateObjects = 64;  // objects per generate() call
constexpr int kSamplerSeries = 64;    // series per sampler round
constexpr int kLaneSample[] = {0, 13, 37, 63};  // lanes re-checked solo

std::vector<SeriesJob> round_jobs(std::uint64_t seed, std::uint64_t round) {
  std::vector<SeriesJob> jobs(kSamplerSeries);
  for (int i = 0; i < kSamplerSeries; ++i) {
    jobs[i].request_id = round;
    jobs[i].index = i;
    jobs[i].rng = nn::Rng(mix(mix(seed, round), static_cast<std::uint64_t>(i)));
  }
  return jobs;
}

/// Runs `jobs` through `sampler` to completion; results indexed by job index.
std::vector<SeriesResult> run_jobs(SlotSampler& sampler, std::vector<SeriesJob> jobs) {
  const std::size_t n = jobs.size();
  for (SeriesJob& j : jobs) sampler.submit(std::move(j));
  std::vector<SeriesResult> out(n);
  std::size_t got = 0;
  while (!sampler.idle()) {
    sampler.pump();
    for (SeriesResult& res : sampler.drain()) {
      out.at(static_cast<std::size_t>(res.index)) = std::move(res);
      ++got;
    }
  }
  if (got != n) throw std::runtime_error("sampler lost series");
  return out;
}

dg::data::Dataset objects_of(const std::vector<SeriesResult>& results) {
  dg::data::Dataset d;
  for (const SeriesResult& r : results) d.push_back(r.object);
  return d;
}

}  // namespace

void run_generate(const Options& o, Result& r) {
  pin_threads(4);
  const Stopwatch synth;
  const dg::synth::SynthData d =
      dg::synth::make_wwt({.n = kTrainObjects, .t = 280, .seed = o.seed});
  const double synth_ms = synth.ms();

  // The released package: briefly trained, flags biased to run full length.
  {
    DoppelGanger trained(d.schema, cli_default_config(d.schema, o.seed));
    trained.fit_more(d.data, kTrainIterations);
    bias_flags_to_continue(trained);
    dg::core::save_package_file(o.work_dir + "/wwt.dgpkg", trained);
  }
  const std::shared_ptr<DoppelGanger> model =
      dg::core::load_package_file(o.work_dir + "/wwt.dgpkg");
  SlotSampler sampler(model, kWidth);  // builds and verifies the tape
  r.check(sampler.tape_active(), "no verified tape for the WWT package");
  const double setup_s = since_start_s();

  // Timed rounds: one generate() call, then one sampler batch. In a traced
  // run, odd rounds run with the program's profiler on.
  std::vector<double> gen_ms, sampler_rate, traced_round_ms, plain_round_ms;
  std::vector<SeriesResult> first_round;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t round = 0; ms_since(t0) < o.seconds * 1e3; ++round) {
    const bool traced = o.trace && (round % 2 == 1);
    const Clock::time_point round0 = Clock::now();
    model->reseed(mix(o.seed, round));
    if (traced) dg::obs::Profiler::start();
    const Clock::time_point g0 = Clock::now();
    const dg::data::Dataset objects = model->generate(kGenerateObjects);
    if (!traced) gen_ms.push_back(ms_since(g0));

    std::vector<SeriesJob> jobs = round_jobs(o.seed, round);
    const Clock::time_point s0 = Clock::now();
    std::vector<SeriesResult> results = run_jobs(sampler, std::move(jobs));
    sampler_rate.push_back(kSamplerSeries / (ms_since(s0) / 1e3));
    if (traced) dg::obs::Profiler::stop();
    (traced ? traced_round_ms : plain_round_ms).push_back(ms_since(round0));
    r.attempted += kGenerateObjects + kSamplerSeries;

    const std::string e1 = check_objects(d.schema, objects);
    r.check(e1.empty(), "generate() round " + std::to_string(round) + ": " + e1);
    const dg::data::Dataset series = objects_of(results);
    std::string e2 = check_objects(d.schema, series);
    for (const SeriesResult& res : results) {
      if (!res.accepted) e2 = "a plain series came back rejected";
    }
    r.check(e2.empty(), "sampler round " + std::to_string(round) + ": " + e2);
    if (round == 0) first_round = std::move(results);
  }

  // ---- lane checks on round 0: the autograd sampler co-batched with the
  // whole round, and each sampled lane alone on the tape, must reproduce
  // the tape's co-batched bytes.
  {
    SlotSampler autograd(model, kWidth, {.use_tape = false});
    const std::string same = compare_objects(
        objects_of(first_round), objects_of(run_jobs(autograd, round_jobs(o.seed, 0))));
    r.check(same.empty(), "tape and autograd samplers disagree: " + same);
    for (const int lane : kLaneSample) {
      SlotSampler solo(model, kWidth);
      std::vector<SeriesJob> one;
      one.push_back(round_jobs(o.seed, 0)[static_cast<std::size_t>(lane)]);
      one[0].index = 0;
      const std::string s = compare_objects(
          {first_round[static_cast<std::size_t>(lane)].object},
          objects_of(run_jobs(solo, std::move(one))));
      r.check(s.empty(), "lane " + std::to_string(lane) + " solo differs from co-batched: " + s);
    }
  }

  if (!o.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("latency_ms", quantile(gen_ms, kFastTimeQuantile), "ms");
    r.set("series_per_s", quantile(sampler_rate, kFastRateQuantile), "series/s");
    r.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }
  // The tail of the untraced generate() calls: reported without a bound,
  // since on a shared host it follows the machine's slow phases.
  r.set("tail_ms", quantile(gen_ms, 0.9), "ms");
  r.set("data.synth_ms", synth_ms, "ms");
  r.set("obs.trace_overhead_pct",
        100.0 * (median(traced_round_ms) - median(plain_round_ms)) / median(plain_round_ms),
        "%");
  layer_probes(o, *model, d.data, r);
  fleet_probe(o, *model, series_lengths(d.data), r);
}

}  // namespace bench
