// Output checks. Each is a property the method must have, or agreement
// between two independent paths; none compares against stored bytes, so a
// check holds on any machine, thread count and SIMD tier. Every function
// returns "" on success and a description of the first violation otherwise.
// The selftest (selftest.cpp) runs each one on clean data and on a corrupted
// copy, so none of them is a check that cannot fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/doppelganger.h"
#include "data/types.h"
#include "nn/matrix.h"
#include "serve/json.h"

namespace bench {

/// Decoded objects respect the schema: categorical values are integral
/// indices in range, continuous values are finite and inside [lo, hi],
/// every record has one value per feature, and the length is in
/// 1..min(max_timesteps, max_len) (max_len 0 = no cap).
std::string check_objects(const dg::data::Schema& schema,
                          const dg::data::Dataset& objects, int max_len = 0);

/// Byte-for-byte equality of two datasets (lane order included).
std::string compare_objects(const dg::data::Dataset& a,
                            const dg::data::Dataset& b);

/// Every loss, penalty and gradient norm of a training call is finite.
std::string check_train_stats(const dg::core::TrainStats& st);

/// Every parameter tensor differs from its initial value in some element.
std::string check_all_moved(const std::vector<dg::nn::Matrix>& before,
                            const std::vector<dg::nn::Matrix>& after);

/// Byte equality of two serialized packages.
std::string compare_bytes(const std::string& a, const std::string& b);

/// Every object carries raw value `value` in attribute `attr`.
std::string check_fixed(const dg::data::Dataset& objects, int attr, float value);

/// A `where` clause as the benchmark evaluates it, independently of
/// serve::matches: attribute index, comparison and raw value.
struct Where {
  int attr = 0;
  enum class Op { Eq, Ne } op = Op::Eq;
  float value = 0.0f;
};
std::string check_where(const dg::data::Dataset& objects,
                        const std::vector<Where>& where);

/// What a generate request asked for, as the reply checks need it.
struct Expect {
  int n = 1;
  int max_len = 0;
  bool conditional = false;  // `where` request: may come back incomplete
  int fixed_attr = -1;       // >= 0: attribute clamped to fixed_value
  float fixed_value = 0.0f;
  std::vector<Where> where;
};

/// Checks one parsed generate reply against its request: ok, object count
/// (exactly n when complete; fewer, with a note, when a conditional reply
/// says it is incomplete), schema bounds and the request's constraints.
std::string check_reply(const dg::serve::json::Value& reply,
                        const dg::data::Schema& schema, const Expect& want);

/// The reply with its per-delivery fields (id, latency_ms, trace) removed,
/// serialized: two replies that must carry the same answer compare equal.
std::string reply_body(const dg::serve::json::Value& reply);

/// Serialized `objects` array of a reply ("" when absent).
std::string reply_objects(const dg::serve::json::Value& reply);

}  // namespace bench
