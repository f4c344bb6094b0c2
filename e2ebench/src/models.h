// Model set-up shared by the workloads: the `dgcli train` default sizes and
// the flag-logit bias that makes generated series run to their caps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/doppelganger.h"
#include "data/types.h"
#include "nn/matrix.h"

namespace bench {

/// The configuration `dgcli train` builds for a schema with no size flags:
/// S = max(1, T/28), LSTM 64 (head 64), critics 128 x 3, batch 32, two
/// critic steps, min/max generator and auxiliary critic on.
dg::core::DoppelGangerConfig cli_default_config(const dg::data::Schema& schema,
                                                std::uint64_t seed);

/// Biases the head's continue/end flag logits by +8/-8 so every series runs
/// to its cap (the same adjustment bench/perf_microbench.cpp makes). Briefly
/// trained packages otherwise end series after a few records, and the
/// benchmark would time admission and decode instead of the LSTM unroll.
void bias_flags_to_continue(dg::core::DoppelGanger& model);

/// The model's package (core::save_package) as bytes.
std::string package_bytes(const dg::core::DoppelGanger& model);

/// Copies of the generator's parameter values, in generator_parameters()
/// order.
std::vector<dg::nn::Matrix> generator_values(const dg::core::DoppelGanger& model);

}  // namespace bench
