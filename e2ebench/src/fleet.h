// A serving fleet the benchmark starts and owns: two `dgcli serve` workers
// (32 slots, one engine, DG_THREADS=1) behind `dgcli route`, plus the
// serve-layer figures taken from outside against a running fleet.
//
// The benchmark starts the workers itself and hands their endpoints to the
// router, so every file the fleet writes stays in the work directory (the
// router's managed mode keeps its port files under /tmp). Every child is
// started with a parent-death signal, stopped and reaped on every exit path,
// and shutdown() reports whether any child is left.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "bench.h"
#include "core/doppelganger.h"
#include "data/types.h"
#include "serve/json.h"
#include "serve/server.h"

namespace bench {

constexpr int kFleetWorkers = 2;

/// SIGTERM/SIGINT set a flag (no SA_RESTART, so a blocked recv returns);
/// throw_if_interrupted() turns it into an exception, which unwinds through
/// the Fleet destructor.
void install_interrupt_handlers();
void throw_if_interrupted();

class Fleet {
 public:
  /// Starts the workers on `package` and a router with --trace-sample 0;
  /// with `traced_router`, a second router on the same workers with
  /// --trace-sample 1. Returns once every router sees the whole fleet up.
  Fleet(const std::string& cli, const std::string& work_dir, const std::string& package,
        bool traced_router);
  ~Fleet() { shutdown(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Stops the routers, then the workers: SIGTERM, up to 5 s to exit, then
  /// SIGKILL. Returns true when every child was reaped and none is left.
  bool shutdown();

  /// Sum of the children's peak resident sets (VmHWM), in MB.
  double peak_rss_mb() const;

  std::vector<int> worker_ports;
  int router_port = 0;
  int traced_router_port = 0;  // 0 unless started with traced_router

 private:
  int start_router(const std::string& cli, const std::string& endpoints,
                   const std::string& name, const std::string& trace_sample);
  void spawn(const std::string& exe, const std::vector<std::string>& args,
             const std::string& name);
  int await_port(const std::string& port_file, pid_t pid);

  std::string work_dir_;
  std::vector<pid_t> pids_;
};

dg::serve::json::Value call_json(dg::serve::TcpClient& c, const std::string& line);

/// The serve and serve/shard per-layer metrics of a running fleet:
/// serve.worker_call_ms and shard.hop_ms (40 fresh plain requests, each sent
/// straight to its home worker and then through the router),
/// serve.json_parse_us_per_kb and serve.json_dump_us_per_kb (json::parse and
/// json::dump of every 7th line of `replies`) and shard.cache_hit_ratio (the
/// router's stats).
void fleet_layer_metrics(Fleet& fleet, std::uint64_t seed,
                         const std::vector<std::string>& replies, Result& r);

/// For workloads that serve nothing themselves: saves `model` as a package,
/// starts a fleet on it, sends 32 plain requests (n=8, `max_len` drawn from
/// `lengths`) and repeats of them through the router, checks every reply,
/// reports fleet_layer_metrics on those replies and stops the fleet.
void fleet_probe(const Options& o, const dg::core::DoppelGanger& model,
                 const std::vector<int>& lengths, Result& r);

}  // namespace bench
