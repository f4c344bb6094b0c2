#include "probes.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "analysis/model.h"
#include "analysis/train_step.h"
#include "checks.h"
#include "core/package.h"
#include "core/wgan.h"
#include "models.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/rng.h"
#include "obs/profile.h"
#include "serve/sampler.h"
#include "serve/tape_exec.h"

namespace bench {

using dg::core::DoppelGanger;
namespace nn = dg::nn;

namespace {

constexpr int kWidth = 32;          // slot-array / generation-step width
constexpr int kSamplerSeries = 64;  // series per sampler probe round

std::unique_ptr<DoppelGanger> copy_of(const DoppelGanger& model) {
  std::istringstream is(package_bytes(model));
  return dg::core::load_package(is);
}

/// One WGAN-GP critic step (critic_loss + backward + Adam::step) on an
/// nn::Mlp of the full critic's shape, timed alone.
double critic_gp_step_ms(const DoppelGanger& model, std::uint64_t seed) {
  const auto& cfg = model.config();
  const int width = model.codec().attribute_dim() + model.codec().minmax_dim() +
                    model.codec().feature_row_dim();
  nn::Rng rng(seed);
  nn::Mlp critic(width, 1, cfg.disc_hidden, cfg.disc_layers, rng);
  nn::Adam opt(critic.parameters());
  const dg::core::CriticFn fn = [&critic](const nn::Var& x) { return critic.forward(x); };
  const nn::Matrix real = rng.uniform_matrix(cfg.batch, width);
  const nn::Matrix fake = rng.uniform_matrix(cfg.batch, width);
  std::vector<double> ms;
  for (int i = 0; i < 25; ++i) {
    Stopwatch s;
    nn::Var loss = dg::core::critic_loss(fn, real, fake, cfg.gp_weight, rng);
    opt.zero_grad();
    loss.backward();
    opt.step();
    ms.push_back(s.ms());
  }
  return median(ms);
}

/// One Adam::step over tensors shaped like the generator's parameters.
double adam_step_us(const DoppelGanger& model) {
  std::vector<nn::Var> params;
  for (const nn::Var& p : model.generator_parameters()) {
    params.emplace_back(p.value(), true);
  }
  for (nn::Var& p : params) nn::sum(p).backward();  // grad = ones
  nn::Adam opt(params);
  std::vector<double> ms;
  for (int i = 0; i < 200; ++i) {
    Stopwatch s;
    opt.step();
    ms.push_back(s.ms());
  }
  return median(ms) * 1e3;
}

/// The fit preflight (analyze_model + analyze_training_step), run from
/// outside the way fit_more runs it on every call.
double preflight_ms(const DoppelGanger& model) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    Stopwatch s;
    const auto m = dg::analysis::analyze_model(model.schema(), model.config());
    const auto t = dg::analysis::analyze_training_step(model.schema(), model.config());
    if (!m.ok() || !t.ok()) throw std::runtime_error("preflight reported findings");
    ms.push_back(s.ms());
  }
  return median(ms);
}

/// Training iterations on a copy of the model: a warm-up call, one call
/// counted by the allocation counter, then calls with the op observer and
/// the profiler on (only its exact kernel.* rows are used).
void training_probe(const DoppelGanger& model, const dg::data::Dataset& data, Result& r) {
  std::unique_ptr<DoppelGanger> copy = copy_of(model);
  r.check(check_train_stats(copy->fit_more(data, 1)).empty(), "training probe: warm-up losses");
  const std::uint64_t a0 = allocations();
  r.check(check_train_stats(copy->fit_more(data, 1)).empty(), "training probe losses");
  const double allocs = static_cast<double>(allocations() - a0);
  KernelTotals kernels;
  std::vector<double> ops_per_call;
  for (int i = 0; i < 2; ++i) {
    std::uint64_t ops = 0;
    dg::obs::Profiler::start();
    {
      nn::OpObserverGuard observe([&ops](const char*, int, int) { ++ops; });
      r.check(check_train_stats(copy->fit_more(data, 1)).empty(), "training probe losses");
    }
    dg::obs::Profiler::stop();
    kernels.add_snapshot();
    ops_per_call.push_back(static_cast<double>(ops));
  }
  r.set("nn.allocs_per_iter", allocs, "count");
  r.set("nn.ops_per_iter", median(ops_per_call), "count");
  r.set("nn.matmul_gflops", kernels.gflops("matmul"), "GFLOP/s");
  r.set("nn.affine_gflops", kernels.gflops("affine"), "GFLOP/s");
  r.set("nn.lstm_gates_gflops", kernels.gflops("lstm_gates"), "GFLOP/s");
}

/// Rounds of 64 series, capped by lengths drawn from the data, through a
/// 32-slot SlotSampler on a copy of the model: a warm-up round, a round
/// counted by the allocation counter and a round with every pump timed.
void sampler_probe(const Options& o, const DoppelGanger& model,
                   const std::vector<int>& lengths, Result& r) {
  const std::shared_ptr<const DoppelGanger> copy = copy_of(model);
  dg::serve::SlotSampler sampler(copy, kWidth);
  const int tmax = model.schema().max_timesteps;
  double allocs_per_series = 0.0;
  std::vector<double> pump_us;
  for (std::uint64_t round = 0; round < 3; ++round) {
    std::vector<int> caps;
    for (int i = 0; i < kSamplerSeries; ++i) {
      const std::uint64_t h = mix(mix(o.seed, 0x5a3b1e + round), static_cast<std::uint64_t>(i));
      dg::serve::SeriesJob job;
      job.request_id = round;
      job.index = i;
      job.rng = nn::Rng(h);
      const int cap = lengths[(h >> 20) % lengths.size()];
      job.max_len = cap >= tmax ? 0 : cap;
      caps.push_back(job.max_len);
      sampler.submit(std::move(job));
    }
    const std::uint64_t a0 = allocations();
    std::vector<dg::serve::SeriesResult> results;
    while (!sampler.idle()) {
      if (round == 2) {
        Stopwatch s;
        sampler.pump();
        pump_us.push_back(s.ms() * 1e3);
      } else {
        sampler.pump();
      }
      for (dg::serve::SeriesResult& res : sampler.drain()) results.push_back(std::move(res));
    }
    if (round == 1) allocs_per_series = static_cast<double>(allocations() - a0) / kSamplerSeries;
    r.check(results.size() == static_cast<std::size_t>(kSamplerSeries), "sampler probe lost series");
    for (const dg::serve::SeriesResult& res : results) {
      const std::string e = check_objects(model.schema(), {res.object},
                                          caps.at(static_cast<std::size_t>(res.index)));
      r.check(e.empty(), "sampler probe: " + e);
    }
  }
  const dg::serve::SamplerStats& st = sampler.stats();
  r.set("nn.allocs_per_series", allocs_per_series, "count");
  r.set("serve.pump_us", median(pump_us), "us");
  r.set("serve.occupancy",
        static_cast<double>(st.slot_steps_active) / static_cast<double>(st.slot_steps_total),
        "ratio");
  r.set("serve.tape_step_share",
        static_cast<double>(st.tape_steps) / static_cast<double>(st.rnn_steps), "ratio");
}

/// generation_step at width 32 over whole series, then GanCodec::decode of
/// the 32 rows.
void generation_probe(const Options& o, const DoppelGanger& model, Result& r) {
  nn::Rng rng(mix(o.seed, 0xdec0de));
  std::vector<double> step_us, decode_us;
  for (int rep = 0; rep < 4; ++rep) {
    dg::core::GenContext ctx = model.sample_context(kWidth, rng);
    dg::core::GenState st = model.initial_gen_state(kWidth);
    const int rw = model.record_width();
    nn::Matrix feats(kWidth, model.codec().feature_row_dim());
    for (int step = 0; step < model.steps_per_series(); ++step) {
      const nn::Matrix noise = rng.normal_matrix(kWidth, model.feat_noise_dim());
      Stopwatch s;
      const nn::Matrix recs = model.generation_step(ctx, noise, st);
      step_us.push_back(s.ms() * 1e3);
      const int take =
          std::min(model.sample_len(), model.codec().tmax() - step * model.sample_len());
      for (int i = 0; i < kWidth; ++i) {
        for (int j = 0; j < take * rw; ++j) {
          feats.at(i, step * model.sample_len() * rw + j) = recs.at(i, j);
        }
      }
    }
    Stopwatch s;
    const dg::data::Dataset decoded = model.codec().decode(ctx.attributes, ctx.minmax, feats);
    decode_us.push_back(s.ms() * 1e3 / kWidth);
    const std::string e = check_objects(model.schema(), decoded);
    r.check(e.empty(), "decoded probe batch: " + e);
  }
  r.set("core.generation_step_us", median(step_us), "us");
  r.set("data.decode_us_per_series", median(decode_us), "us");
}

}  // namespace

std::vector<int> series_lengths(const dg::data::Dataset& data) {
  std::vector<int> out;
  for (const dg::data::Object& obj : data) out.push_back(obj.length());
  return out;
}

void layer_probes(const Options& o, const DoppelGanger& model, const dg::data::Dataset& data,
                  Result& r) {
  std::vector<double> encode_ms, save_ms, load_ms, tape_ms;
  for (int i = 0; i < 5; ++i) {
    Stopwatch s;
    const auto enc = model.codec().encode(data);
    encode_ms.push_back(s.ms());
  }
  const std::string path = o.work_dir + "/layer-probe.dgpkg";
  for (int i = 0; i < 4; ++i) {
    Stopwatch save;
    dg::core::save_package_file(path, model);
    save_ms.push_back(save.ms());
    Stopwatch load;
    const std::unique_ptr<DoppelGanger> loaded = dg::core::load_package_file(path);
    load_ms.push_back(load.ms());
  }
  for (int i = 0; i < 5; ++i) {
    Stopwatch s;
    const auto tape = dg::serve::TapeExecutor::create(model, kWidth);
    tape_ms.push_back(s.ms());
    r.check(tape != nullptr, "the tape build refused the model");
  }
  r.set("data.encode_ms", median(encode_ms), "ms");
  r.set("core.package_save_ms", median(save_ms), "ms");
  r.set("core.package_load_ms", median(load_ms), "ms");
  r.set("analysis.tape_build_ms", median(tape_ms), "ms");
  r.set("analysis.preflight_ms", preflight_ms(model), "ms");
  r.set("core.critic_gp_step_ms", critic_gp_step_ms(model, o.seed), "ms");
  r.set("nn.adam_step_us", adam_step_us(model), "us");
  generation_probe(o, model, r);
  training_probe(model, data, r);
  sampler_probe(o, model, series_lengths(data), r);
}

}  // namespace bench
