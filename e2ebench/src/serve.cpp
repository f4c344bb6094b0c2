// serve-gcut: `dgcli route` in front of two `dgcli serve` workers (32 slots,
// one engine, DG_THREADS=1, tracing off), driven by this process over the
// JSON-lines protocol. The traffic is a fixed mix of requests in rounds of
// 32: plain n=8 requests capped by lengths drawn from the GCUT data,
// fixed-attribute and `where` requests, a bulk n=256 request every
// kBulkEvery-th round (~0.5 MB reply), repeats the router cache answers, and
// one pair of requests at seeds 2^53 and 2^53+1.
//
// The traced run starts a second router on the same workers with
// --trace-sample 1 and sends every other closed-loop round through it, so
// the program's own tracing (router spans, trace context on the wire, worker
// spans) is on for those rounds and off for the rest.
//
// Throughput is measured closed-loop (two connections, each sends its next
// request when the reply arrives); latency open-loop, at a fixed schedule,
// timed from when each request was due.
//
// The fleet (fleet.h) is started, stopped and reaped by this process on
// every exit path, and the run fails unless no child is left.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/package.h"
#include "fleet.h"
#include "models.h"
#include "probes.h"
#include "serve/json.h"
#include "serve/server.h"
#include "synth/synth.h"

namespace bench {

namespace json = dg::serve::json;
using dg::serve::TcpClient;

namespace {

constexpr int kTrainObjects = 400;
constexpr int kTrainIterations = 2;
constexpr int kRoundSize = 32;
constexpr int kBulkEvery = 2;  // rounds per bulk request
constexpr int kBulkN = 256;
constexpr int kClosedConnections = 2;
constexpr int kOpenConnections = 4;
constexpr double kOpenRate = 200.0;  // requests/s of the open-loop schedule
constexpr double kClosedShare = 0.5;  // share of --seconds spent closed-loop
constexpr std::uint64_t kPairSeed = 1ULL << 53;  // the pair is 2^53, 2^53+1

// ---------------------------------------------------------------- traffic

enum class Kind { Plain, Bulk, Fixed, Where, Repeat, PairA, PairB };

struct Req {
  Kind kind = Kind::Plain;
  int repeat_of = -1;  // Repeat: position of the original in the round
  std::string line;
  Expect expect;
};

struct Traffic {
  const dg::data::Schema* schema = nullptr;
  std::vector<int> lengths;  // GCUT series lengths the caps are drawn from
  std::uint64_t seed = 0;

  /// The 32 requests of round k, a pure function of (seed, k).
  std::vector<Req> round(std::uint64_t k) const {
    const dg::data::FieldSpec& event = schema->attributes.at(0);
    std::vector<Req> out(kRoundSize);
    for (int pos = 0; pos < kRoundSize; ++pos) {
      Req& q = out[static_cast<std::size_t>(pos)];
      const std::uint64_t h = mix(mix(seed, k), static_cast<std::uint64_t>(pos));
      // Request seeds stay below 2^52 so every one is exact on the wire.
      std::uint64_t req_seed = h & ((1ULL << 52) - 1);
      int n = 8;
      int max_len = lengths[(h >> 20) % lengths.size()];
      const int label = static_cast<int>((h >> 40) % event.labels.size());
      std::string extra;
      if (pos == 0 && k % kBulkEvery == 0) {
        q.kind = Kind::Bulk;
        n = kBulkN;
        max_len = 0;
      } else if (pos >= 15 && pos <= 18) {
        q.kind = Kind::Fixed;
        extra = ",\"fixed\":{\"" + event.name + "\":\"" + event.labels[label] + "\"}";
        q.expect.fixed_attr = 0;
        q.expect.fixed_value = static_cast<float>(label);
      } else if (pos >= 19 && pos <= 22) {
        q.kind = Kind::Where;
        n = 4;
        extra = ",\"attempts\":16,\"where\":[{\"attr\":\"" + event.name +
                "\",\"op\":\"ne\",\"value\":\"" + event.labels[label] + "\"}]";
        q.expect.conditional = true;
        q.expect.where.push_back({0, Where::Op::Ne, static_cast<float>(label)});
      } else if (pos >= 23 && pos <= 28) {
        q.kind = Kind::Repeat;
        q.repeat_of = pos - 22;  // positions 1..6
      } else if (pos == 29 || pos == 30) {
        // Inputs that do not depend on --seed: the pair's second request
        // fails the same way on every run while the seed parses via double.
        q.kind = pos == 29 ? Kind::PairA : Kind::PairB;
        req_seed = kPairSeed + (pos == 30 ? 1 : 0);
        max_len = 10;
      }
      if (q.kind == Kind::Repeat) {
        const Req& orig = out[static_cast<std::size_t>(q.repeat_of)];
        q.expect = orig.expect;
        q.line = orig.line;  // id is patched below
      } else {
        q.expect.n = n;
        q.expect.max_len = max_len;
        q.line = "{\"op\":\"generate\",\"id\":@,\"seed\":" + std::to_string(req_seed) +
                 ",\"n\":" + std::to_string(n) +
                 (max_len > 0 ? ",\"max_len\":" + std::to_string(max_len) : "") +
                 extra + "}";
      }
    }
    for (int pos = 0; pos < kRoundSize; ++pos) {
      std::string& line = out[static_cast<std::size_t>(pos)].line;
      const std::size_t at = line.find('@');
      line.replace(at, 1, std::to_string(k * kRoundSize + pos + 1));
    }
    return out;
  }
};

/// One request as sent: where it sits in the mix, its timing and its reply.
struct Sent {
  std::uint64_t round = 0;
  int pos = 0;
  double done_s = 0.0;      // reply time, seconds since the phase started
  double latency_ms = 0.0;  // open loop: from when it was due
  bool traced = false;
  std::string reply;
};

/// Runs `body(i)` on `n` threads, joins them all, rethrows the first error.
template <class F>
void run_threads(int n, F body) {
  std::vector<std::thread> ts;
  std::vector<std::exception_ptr> errs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ts.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        errs[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : ts) t.join();
  for (const std::exception_ptr& e : errs) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void run_serve(const Options& o, Result& r) {
  install_interrupt_handlers();
  pin_threads(4);

  const Stopwatch synth;
  const dg::synth::SynthData d =
      dg::synth::make_gcut({.n = kTrainObjects, .t_max = 50, .seed = o.seed});
  const double synth_ms = synth.ms();
  const Traffic traffic{&d.schema, series_lengths(d.data), o.seed};

  const std::string package = std::filesystem::absolute(o.work_dir + "/gcut.dgpkg").string();
  {
    dg::core::DoppelGanger model(d.schema, cli_default_config(d.schema, o.seed));
    model.fit_more(d.data, kTrainIterations);
    bias_flags_to_continue(model);  // series run to their max_len caps
    dg::core::save_package_file(package, model);
  }

  Fleet fleet(o.cli, o.work_dir, package, o.trace);
  const double setup_s = since_start_s();

  std::mutex sent_mu;
  std::vector<Sent> sent;  // guarded by sent_mu until the phases end
  std::atomic<std::uint64_t> next_round{0};

  // ---- closed loop: each connection sends whole rounds back to back; in
  // the traced run, odd rounds go through the tracing router.
  const double closed_ms = o.seconds * kClosedShare * 1e3;
  const Clock::time_point c0 = Clock::now();
  run_threads(std::min(kClosedConnections, cpu_count()), [&](int) {
    TcpClient client("127.0.0.1", fleet.router_port);
    std::optional<TcpClient> traced_client;
    if (o.trace) traced_client.emplace("127.0.0.1", fleet.traced_router_port);
    std::vector<Sent> mine;
    while (ms_since(c0) < closed_ms) {
      const std::uint64_t k = next_round.fetch_add(1);
      const bool traced = o.trace && k % 2 == 1;
      TcpClient& via = traced ? *traced_client : client;
      const std::vector<Req> reqs = traffic.round(k);
      for (int pos = 0; pos < kRoundSize; ++pos) {
        throw_if_interrupted();
        Sent s;
        s.round = k;
        s.pos = pos;
        s.traced = traced;
        const Clock::time_point t = Clock::now();
        s.reply = via.call(reqs[static_cast<std::size_t>(pos)].line);
        s.latency_ms = ms_since(t);
        s.done_s = ms_since(c0) / 1e3;
        mine.push_back(std::move(s));
      }
    }
    std::lock_guard<std::mutex> lk(sent_mu);
    for (Sent& s : mine) sent.push_back(std::move(s));
  });
  const std::size_t closed_count = sent.size();

  // ---- open loop: whole rounds on a fixed schedule, timed from due time.
  const std::uint64_t open_first = next_round.load();
  const std::uint64_t open_rounds = static_cast<std::uint64_t>(
      std::ceil(o.seconds * (1.0 - kClosedShare) * kOpenRate / kRoundSize));
  const std::size_t open_total = open_rounds * kRoundSize;
  std::vector<Sent> open(open_total);
  std::atomic<std::size_t> next_req{0};
  const Clock::time_point o0 = Clock::now() + std::chrono::milliseconds(5);
  run_threads(std::min(kOpenConnections, cpu_count()), [&](int) {
    TcpClient client("127.0.0.1", fleet.router_port);
    std::map<std::uint64_t, std::vector<Req>> rounds;
    for (std::size_t i = next_req.fetch_add(1); i < open_total; i = next_req.fetch_add(1)) {
      throw_if_interrupted();
      Sent& s = open[i];
      s.round = open_first + i / kRoundSize;
      s.pos = static_cast<int>(i % kRoundSize);
      auto it = rounds.find(s.round);
      if (it == rounds.end()) it = rounds.emplace(s.round, traffic.round(s.round)).first;
      const Clock::time_point due =
          o0 + std::chrono::nanoseconds(static_cast<std::int64_t>(i * 1e9 / kOpenRate));
      std::this_thread::sleep_until(due);
      s.reply = client.call(it->second[static_cast<std::size_t>(s.pos)].line);
      s.latency_ms = ms_since(due);
    }
  });
  for (Sent& s : open) sent.push_back(std::move(s));
  r.attempted = sent.size();

  // ---- output checks on every reply
  std::map<std::pair<std::uint64_t, int>, std::size_t> where_sent;
  for (std::size_t i = 0; i < sent.size(); ++i) where_sent[{sent[i].round, sent[i].pos}] = i;
  std::vector<json::Value> parsed(sent.size());
  // Closed-loop throughput: series delivered per window of a tenth of the
  // phase, reported at the best window.
  constexpr int kWindows = 10;
  const double window_s = closed_ms / 1e3 / kWindows;
  std::vector<double> window_series(kWindows, 0.0);
  std::map<std::uint64_t, std::vector<Req>> rounds;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    auto it = rounds.find(s.round);
    if (it == rounds.end()) it = rounds.emplace(s.round, traffic.round(s.round)).first;
    const Req& q = it->second[static_cast<std::size_t>(s.pos)];
    const std::string where = "round " + std::to_string(s.round) + " request " +
                              std::to_string(s.pos) + ": ";
    try {
      parsed[i] = json::parse(s.reply);
    } catch (const std::exception& e) {
      r.fail(where + "unparseable reply: " + e.what());
      continue;
    }
    const std::string e = check_reply(parsed[i], d.schema, q.expect);
    r.check(e.empty(), where + e);
    // The tracing router must really have sampled its rounds, or the
    // overhead figure would compare two untraced halves.
    r.check(!s.traced || parsed[i].find("trace") != nullptr, where + "traced reply has no trace id");
    if (i < closed_count) {
      if (const json::Value* objs = parsed[i].find("objects")) {
        const int w = static_cast<int>(s.done_s / window_s);
        if (w < kWindows) window_series[static_cast<std::size_t>(w)] += static_cast<double>(objs->as_array().size());
      }
    }
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    const Req& q = rounds.at(s.round)[static_cast<std::size_t>(s.pos)];
    if (q.kind == Kind::Repeat) {
      const std::size_t orig = where_sent.at({s.round, q.repeat_of});
      r.check(reply_body(parsed[i]) == reply_body(parsed[orig]),
              "round " + std::to_string(s.round) + ": repeated request " +
                  std::to_string(s.pos) + " differs from its original");
    } else if (q.kind == Kind::PairB) {
      // Distinct seeds must give distinct series; a byte-identical pair is
      // the one failure this benchmark counts.
      const std::size_t a = where_sent.at({s.round, s.pos - 1});
      if (reply_objects(parsed[i]) == reply_objects(parsed[a])) ++r.failed;
    }
  }

  // ---- routed replies against the same lines sent straight to a worker
  {
    TcpClient direct("127.0.0.1", fleet.worker_ports[0]);
    std::uint64_t k = open_first;
    while (k % kBulkEvery != 0) ++k;
    if (k >= open_first + open_rounds) k = open_first;
    const std::vector<Req> reqs = traffic.round(k);
    for (const int pos : {0, 1, 15, 19, 23, 29}) {
      const std::size_t i = where_sent.at({k, pos});
      const json::Value v = call_json(direct, reqs[static_cast<std::size_t>(pos)].line);
      r.check(reply_body(v) == reply_body(parsed[i]),
              "routed reply differs from the direct worker reply (round " +
                  std::to_string(k) + " request " + std::to_string(pos) + ")");
    }
  }

  // Open-loop latency: p99 over the whole phase; p50 per tenth of the
  // schedule, reported at the best window.
  std::vector<double> open_latency;
  std::vector<std::vector<double>> window_latency(kWindows);
  for (std::size_t i = closed_count; i < sent.size(); ++i) {
    open_latency.push_back(sent[i].latency_ms);
    window_latency[(i - closed_count) * kWindows / open_total].push_back(sent[i].latency_ms);
  }
  std::vector<double> window_p50;
  for (const std::vector<double>& w : window_latency) window_p50.push_back(median(w));

  if (!o.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("latency_ms", quantile(window_p50, kFastTimeQuantile), "ms");
    r.set("series_per_s", quantile(window_series, kFastRateQuantile) / window_s, "series/s");
    r.set("peak_rss_mb", fleet.peak_rss_mb(), "MB");
  } else {
    std::vector<double> plain_traced, plain_untraced;
    for (std::size_t i = 0; i < closed_count; ++i) {
      if (rounds.at(sent[i].round)[static_cast<std::size_t>(sent[i].pos)].kind != Kind::Plain) continue;
      (sent[i].traced ? plain_traced : plain_untraced).push_back(sent[i].latency_ms);
    }
    std::vector<std::string> replies;
    for (const Sent& s : sent) replies.push_back(s.reply);
    r.set("tail_ms", quantile(open_latency, 0.99), "ms");
    r.set("data.synth_ms", synth_ms, "ms");
    r.set("obs.trace_overhead_pct",
          100.0 * (median(plain_traced) - median(plain_untraced)) / median(plain_untraced), "%");
    fleet_layer_metrics(fleet, o.seed, replies, r);
    layer_probes(o, *dg::core::load_package_file(package), d.data, r);
  }
  r.check(fleet.shutdown(), "a fleet process was left running after shutdown");
}

}  // namespace bench
