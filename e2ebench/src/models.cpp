#include "models.h"

#include <algorithm>
#include <sstream>

#include "core/package.h"

namespace bench {

dg::core::DoppelGangerConfig cli_default_config(const dg::data::Schema& schema,
                                                std::uint64_t seed) {
  dg::core::DoppelGangerConfig cfg;
  cfg.sample_len = std::max(1, schema.max_timesteps / 28);
  cfg.lstm_units = 64;
  cfg.head_hidden = cfg.lstm_units;
  cfg.disc_hidden = 128;
  cfg.disc_layers = 3;
  cfg.batch = 32;
  cfg.d_steps = 2;
  cfg.seed = seed;
  cfg.use_minmax_generator = true;
  cfg.use_aux_discriminator = true;
  return cfg;
}

void bias_flags_to_continue(dg::core::DoppelGanger& model) {
  auto params = model.generator_parameters();
  dg::nn::Matrix& head_bias = params.back().mutable_value();  // head output bias
  const int rw = model.record_width();
  for (int s = 0; s < model.sample_len(); ++s) {
    head_bias.at(0, s * rw + rw - 2) += 8.0f;  // continue flag logit
    head_bias.at(0, s * rw + rw - 1) -= 8.0f;  // end flag logit
  }
}

std::string package_bytes(const dg::core::DoppelGanger& model) {
  std::ostringstream os;
  dg::core::save_package(os, model);
  return os.str();
}

std::vector<dg::nn::Matrix> generator_values(const dg::core::DoppelGanger& model) {
  std::vector<dg::nn::Matrix> out;
  for (const dg::nn::Var& p : model.generator_parameters()) out.push_back(p.value());
  return out;
}

}  // namespace bench
