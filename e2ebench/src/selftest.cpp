// Negative controls for every output check: each check must pass on clean
// outputs of the real program and fail on a copy with one planted fault (a
// flipped reply byte, an out-of-range decoded value, a swapped lane, a
// non-finite loss, ...). A check that cannot fail would show nothing.
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "core/package.h"
#include "models.h"
#include "serve/protocol.h"
#include "synth/synth.h"

namespace bench {

namespace json = dg::serve::json;
using dg::data::Dataset;

namespace {

int g_bad = 0;

/// One control: `clean` must be "" and `corrupted` must not.
void control(const char* name, const std::string& clean, const std::string& corrupted) {
  const bool ok = clean.empty() && !corrupted.empty();
  std::printf("%-44s %s\n", name, ok ? "ok" : "MISBEHAVES");
  if (!clean.empty()) std::printf("  clean input failed: %s\n", clean.c_str());
  if (corrupted.empty()) std::printf("  corrupted input passed\n");
  if (!ok) ++g_bad;
}

json::Value reply_of(const Dataset& objects, const dg::data::Schema& schema,
                     bool complete, const std::string& note, std::uint64_t id = 1) {
  dg::serve::GenResponse resp;
  resp.id = id;
  resp.ok = true;
  resp.complete = complete;
  resp.error = note;
  resp.latency_ms = 1.25 * static_cast<double>(id);
  resp.objects = objects;
  return dg::serve::response_to_json(resp, schema);
}

/// The reply line with one digit of its first feature value changed.
std::string flip_feature_byte(const std::string& line) {
  std::string out = line;
  std::size_t i = out.find("\"features\":[[");
  while (i < out.size() && !(out[i] >= '1' && out[i] <= '9')) ++i;
  if (i < out.size()) out[i] = out[i] == '9' ? '8' : static_cast<char>(out[i] + 1);
  return out;
}

}  // namespace

int run_selftest() {
  g_bad = 0;
  const dg::synth::SynthData d = dg::synth::make_gcut({.n = 64, .t_max = 50, .seed = 5});
  const dg::data::Schema& schema = d.schema;
  dg::core::DoppelGanger model(schema, cli_default_config(schema, 5));
  const auto initial = generator_values(model);
  const dg::core::TrainStats stats = model.fit_more(d.data, 2);
  bias_flags_to_continue(model);
  model.reseed(9);
  const Dataset clean = model.generate(16);

  // ---- schema bounds on decoded objects
  auto mutated = [&](auto&& edit) {
    Dataset c = clean;
    edit(c);
    return check_objects(schema, c);
  };
  control("objects: category index out of range", check_objects(schema, clean),
          mutated([](Dataset& c) { c[3].attributes[0] = 4.0f; }));
  control("objects: continuous value above max", check_objects(schema, clean),
          mutated([](Dataset& c) { c[5].features[2][1] = 1.5f; }));
  control("objects: non-finite value", check_objects(schema, clean),
          mutated([](Dataset& c) {
            c[0].features[0][0] = std::numeric_limits<float>::quiet_NaN();
          }));
  control("objects: empty series", check_objects(schema, clean),
          mutated([](Dataset& c) { c[1].features.clear(); }));
  control("objects: series longer than its cap", check_objects(schema, clean, 50),
          check_objects(schema, clean, clean[0].length() - 1));

  // ---- byte agreement between two paths
  Dataset swapped = clean;
  std::swap(swapped[2], swapped[7]);
  control("lanes: swapped lane", compare_objects(clean, clean),
          compare_objects(clean, swapped));
  Dataset nudged = clean;
  nudged[4].features[3][2] = std::nextafter(nudged[4].features[3][2], 2.0f);
  control("lanes: one value off by one ulp", compare_objects(clean, clean),
          compare_objects(clean, nudged));
  const std::string pkg = package_bytes(model);
  std::string flipped_pkg = pkg;
  flipped_pkg[flipped_pkg.size() / 2] ^= 0x01;
  control("package: flipped byte", compare_bytes(pkg, package_bytes(model)),
          compare_bytes(pkg, flipped_pkg));

  // ---- training properties
  dg::core::TrainStats bad_loss = stats;
  bad_loss.g_loss.back() = std::numeric_limits<float>::quiet_NaN();
  control("train: non-finite generator loss", check_train_stats(stats),
          check_train_stats(bad_loss));
  dg::core::TrainStats bad_gp = stats;
  bad_gp.gp_penalty.front() = std::numeric_limits<float>::infinity();
  control("train: infinite gradient penalty", check_train_stats(stats),
          check_train_stats(bad_gp));
  std::vector<dg::nn::Matrix> stuck = generator_values(model);
  stuck[1] = initial[1];
  control("train: a parameter that never moved",
          check_all_moved(initial, generator_values(model)),
          check_all_moved(initial, stuck));

  // ---- replies
  const json::Value reply = reply_of(clean, schema, true, "");
  Expect want;
  want.n = static_cast<int>(clean.size());
  control("reply: object count differs from n", check_reply(reply, schema, want),
          [&] {
            Expect more = want;
            more.n += 1;
            return check_reply(reply, schema, more);
          }());
  Dataset out_of_range = clean;
  out_of_range[6].features[0][2] = -0.25f;
  control("reply: out-of-range decoded value", check_reply(reply, schema, want),
          check_reply(reply_of(out_of_range, schema, true, ""), schema, want));
  Dataset fixed = clean;
  for (auto& o : fixed) o.attributes[0] = 2.0f;
  Expect want_fixed = want;
  want_fixed.fixed_attr = 0;
  want_fixed.fixed_value = 2.0f;
  Dataset broken_fixed = fixed;
  broken_fixed[9].attributes[0] = 1.0f;
  control("reply: fixed attribute not held",
          check_reply(reply_of(fixed, schema, true, ""), schema, want_fixed),
          check_reply(reply_of(broken_fixed, schema, true, ""), schema, want_fixed));
  Expect want_where = want;
  want_where.conditional = true;
  want_where.where.push_back({0, Where::Op::Ne, 1.0f});
  control("reply: where clause violated",
          check_reply(reply_of(fixed, schema, true, ""), schema, want_where),
          check_reply(reply_of(broken_fixed, schema, true, ""), schema, want_where));
  const Dataset partial(fixed.begin(), fixed.begin() + 5);
  control("reply: incomplete without saying so",
          check_reply(reply_of(partial, schema, false, "ran out of attempts"), schema,
                      want_where),
          check_reply(reply_of(partial, schema, false, ""), schema, want_where));
  control("reply: plain request cut short",
          check_reply(reply_of(clean, schema, true, ""), schema, want),
          check_reply(reply_of(partial, schema, false, "short"), schema, want));

  // ---- reply agreement (cache hits, routed vs direct, the 2^53 pair)
  const std::string line = json::dump(reply);
  const json::Value redelivered = reply_of(clean, schema, true, "", 77);
  const json::Value flipped = json::parse(flip_feature_byte(line));
  auto agree = [](const json::Value& a, const json::Value& b) {
    return reply_body(a) == reply_body(b) ? std::string() : std::string("differ");
  };
  control("reply: flipped reply byte", agree(reply, redelivered), agree(reply, flipped));
  auto distinct = [](const json::Value& a, const json::Value& b) {
    return reply_objects(a) != reply_objects(b) ? std::string() : std::string("identical");
  };
  control("pair: distinct seeds, identical series", distinct(reply, flipped),
          distinct(reply, redelivered));

  std::printf("%d control(s) misbehaved\n", g_bad);
  return g_bad;
}

}  // namespace bench
