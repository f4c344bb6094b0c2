// In-process layer probes of the traced run. Every workload runs them after
// its timed loop, on its own model and data, so each traced run reports the
// per-layer metrics of every layer the model passes through: the data
// codec, the fit preflight, package save/load, the tape build, the stepwise
// generator, a critic step, Adam, a training iteration (op census,
// allocations, kernel GFLOP/s) and the slot sampler.
#pragma once

#include "bench.h"
#include "core/doppelganger.h"
#include "data/types.h"

namespace bench {

/// Measures the in-process layers on `model` (left unchanged: the training
/// and sampler probes run on copies loaded from its package) and `data`, and
/// sets data.encode_ms, data.decode_us_per_series, analysis.preflight_ms,
/// analysis.tape_build_ms, core.package_save_ms, core.package_load_ms,
/// core.generation_step_us, core.critic_gp_step_ms, nn.adam_step_us,
/// nn.ops_per_iter, nn.allocs_per_iter, nn.{matmul,affine,lstm_gates}_gflops,
/// nn.allocs_per_series, serve.pump_us, serve.occupancy and
/// serve.tape_step_share. Generated objects are checked against the schema.
void layer_probes(const Options& o, const dg::core::DoppelGanger& model,
                  const dg::data::Dataset& data, Result& r);

/// Lengths of the series in `data`: the `max_len` caps the probes and the
/// serve mix draw from.
std::vector<int> series_lengths(const dg::data::Dataset& data);

}  // namespace bench
