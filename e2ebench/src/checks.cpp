#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "serve/protocol.h"

namespace bench {

using dg::data::Dataset;
using dg::data::FieldSpec;
using dg::data::FieldType;
using dg::data::Object;
using dg::data::Schema;
namespace json = dg::serve::json;

namespace {

std::string value_error(const FieldSpec& f, float v) {
  if (f.type == FieldType::Categorical) {
    if (!(v >= 0.0f) || v >= static_cast<float>(f.n_categories) ||
        v != std::floor(v)) {
      std::ostringstream os;
      os << f.name << " category " << v << " outside 0.." << f.n_categories - 1;
      return os.str();
    }
    return "";
  }
  if (!std::isfinite(v) || v < f.lo || v > f.hi) {
    std::ostringstream os;
    os << f.name << " value " << v << " outside [" << f.lo << ", " << f.hi << "]";
    return os.str();
  }
  return "";
}

std::string at(std::size_t i, const std::string& what) {
  return "object " + std::to_string(i) + ": " + what;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

}  // namespace

std::string check_objects(const Schema& schema, const Dataset& objects,
                          int max_len) {
  const int cap = max_len > 0 ? std::min(max_len, schema.max_timesteps)
                              : schema.max_timesteps;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const Object& o = objects[i];
    if (o.attributes.size() != schema.attributes.size()) {
      return at(i, "attribute count " + std::to_string(o.attributes.size()));
    }
    for (std::size_t j = 0; j < o.attributes.size(); ++j) {
      const std::string e = value_error(schema.attributes[j], o.attributes[j]);
      if (!e.empty()) return at(i, e);
    }
    if (o.length() < 1 || o.length() > cap) {
      return at(i, "length " + std::to_string(o.length()) + " outside 1.." +
                       std::to_string(cap));
    }
    for (const std::vector<float>& rec : o.features) {
      if (rec.size() != schema.features.size()) {
        return at(i, "record width " + std::to_string(rec.size()));
      }
      for (std::size_t k = 0; k < rec.size(); ++k) {
        const std::string e = value_error(schema.features[k], rec[k]);
        if (!e.empty()) return at(i, e);
      }
    }
  }
  return "";
}

std::string compare_objects(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size()) {
    return "object counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i].attributes, b[i].attributes)) {
      return at(i, "attributes differ");
    }
    if (a[i].features.size() != b[i].features.size()) {
      return at(i, "lengths differ");
    }
    for (std::size_t t = 0; t < a[i].features.size(); ++t) {
      if (!bits_equal(a[i].features[t], b[i].features[t])) {
        return at(i, "record " + std::to_string(t) + " differs");
      }
    }
  }
  return "";
}

std::string check_train_stats(const dg::core::TrainStats& st) {
  const std::pair<const char*, const std::vector<float>*> series[] = {
      {"d_loss", &st.d_loss},         {"aux_loss", &st.aux_loss},
      {"g_loss", &st.g_loss},         {"gp_penalty", &st.gp_penalty},
      {"d_grad_norm", &st.d_grad_norm}, {"g_grad_norm", &st.g_grad_norm}};
  for (const auto& [name, values] : series) {
    for (std::size_t i = 0; i < values->size(); ++i) {
      if (!std::isfinite((*values)[i])) {
        return std::string(name) + "[" + std::to_string(i) + "] is not finite";
      }
    }
  }
  if (st.d_loss.empty() || st.g_loss.empty() || st.gp_penalty.empty() ||
      st.g_grad_norm.empty()) {
    return "training call reported no losses";
  }
  return "";
}

std::string check_all_moved(const std::vector<dg::nn::Matrix>& before,
                            const std::vector<dg::nn::Matrix>& after) {
  if (before.size() != after.size()) return "parameter counts differ";
  for (std::size_t i = 0; i < before.size(); ++i) {
    const dg::nn::Matrix& a = before[i];
    const dg::nn::Matrix& b = after[i];
    if (!a.same_shape(b)) return "parameter " + std::to_string(i) + " changed shape";
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
      return "parameter " + std::to_string(i) + " never moved from its initial value";
    }
  }
  return "";
}

std::string compare_bytes(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    return "sizes differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return "first difference at byte " + std::to_string(i);
  }
  return "";
}

std::string check_fixed(const Dataset& objects, int attr, float value) {
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].attributes.at(static_cast<std::size_t>(attr)) != value) {
      return at(i, "fixed attribute " + std::to_string(attr) + " is " +
                       std::to_string(objects[i].attributes[attr]) + ", not " +
                       std::to_string(value));
    }
  }
  return "";
}

std::string check_where(const Dataset& objects, const std::vector<Where>& where) {
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const Where& w : where) {
      const float v = objects[i].attributes.at(static_cast<std::size_t>(w.attr));
      const bool ok = w.op == Where::Op::Eq ? v == w.value : v != w.value;
      if (!ok) {
        return at(i, "attribute " + std::to_string(w.attr) + " = " +
                         std::to_string(v) + " violates its where clause");
      }
    }
  }
  return "";
}

std::string check_reply(const json::Value& reply, const Schema& schema,
                        const Expect& want) {
  if (!reply.is_object()) return "reply is not an object";
  if (!reply.bool_or("ok", false)) {
    return "request refused: " + reply.string_or("error", "?");
  }
  const dg::serve::GenResponse resp = dg::serve::response_from_json(reply, schema);
  const int got = static_cast<int>(resp.objects.size());
  if (resp.complete) {
    if (got != want.n) {
      return "complete reply carries " + std::to_string(got) + " objects, " +
             std::to_string(want.n) + " requested";
    }
  } else {
    // Only a conditional request may come back short, and it must say so.
    if (!want.conditional) return "plain request reported incomplete";
    if (got >= want.n) return "incomplete reply carries all requested objects";
    if (resp.error.empty()) return "incomplete reply without a note";
  }
  std::string e = check_objects(schema, resp.objects, want.max_len);
  if (!e.empty()) return e;
  if (want.fixed_attr >= 0) {
    e = check_fixed(resp.objects, want.fixed_attr, want.fixed_value);
    if (!e.empty()) return e;
  }
  return check_where(resp.objects, want.where);
}

std::string reply_body(const json::Value& reply) {
  if (!reply.is_object()) return json::dump(reply);
  json::Object kept;
  for (const auto& [k, v] : reply.as_object()) {
    if (k == "id" || k == "latency_ms" || k == "trace") continue;
    kept.emplace_back(k, v);
  }
  return json::dump(json::Value(std::move(kept)));
}

std::string reply_objects(const json::Value& reply) {
  const json::Value* objects = reply.find("objects");
  return objects ? json::dump(*objects) : "";
}

}  // namespace bench
