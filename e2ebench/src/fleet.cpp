#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>

#include "checks.h"
#include "core/package.h"
#include "serve/shard/router.h"

extern char** environ;

namespace bench {

namespace json = dg::serve::json;
using dg::serve::TcpClient;

namespace {

constexpr double kStartTimeoutS = 60.0;

std::atomic<bool> g_interrupted{false};
void on_signal(int) { g_interrupted.store(true); }

/// Blocks until the router sees every worker up and agrees on the package
/// hash (the cache serves only under a consensus hash).
void await_ready(int router_port) {
  TcpClient c("127.0.0.1", router_port);
  const Clock::time_point t0 = Clock::now();
  while (ms_since(t0) < kStartTimeoutS * 1e3) {
    throw_if_interrupted();
    const json::Value v = call_json(c, "{\"op\":\"stats\"}");
    const json::Value* fleet = v.find("fleet");
    if (fleet && fleet->number_or("workers_up", 0) == kFleetWorkers &&
        !v.string_or("fleet_hash", "").empty()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  throw std::runtime_error("router never saw the whole fleet up");
}

std::string plain_line(std::uint64_t id, std::uint64_t seed, int n, int max_len) {
  return "{\"op\":\"generate\",\"id\":" + std::to_string(id) + ",\"seed\":" +
         std::to_string(seed) + ",\"n\":" + std::to_string(n) +
         (max_len > 0 ? ",\"max_len\":" + std::to_string(max_len) : "") + "}";
}

}  // namespace

void install_interrupt_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_signal;  // no SA_RESTART: a blocked recv returns EINTR
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void throw_if_interrupted() {
  if (g_interrupted.load()) throw std::runtime_error("interrupted by a signal");
}

json::Value call_json(TcpClient& c, const std::string& line) {
  return json::parse(c.call(line));
}

// ---------------------------------------------------------------- Fleet

Fleet::Fleet(const std::string& cli, const std::string& work_dir, const std::string& package,
             bool traced_router)
    : work_dir_(work_dir) {
  for (int w = 0; w < kFleetWorkers; ++w) {
    const std::string pf = work_dir_ + "/worker" + std::to_string(w) + ".port";
    spawn(cli,
          {"serve", "--model", package, "--port", "0", "--port-file", pf, "--slots", "32",
           "--engines", "1", "--poll", "0"},
          "worker" + std::to_string(w));
    worker_ports.push_back(await_port(pf, pids_.back()));
  }
  std::string endpoints;
  for (int p : worker_ports) {
    endpoints += (endpoints.empty() ? "" : ",") + std::string("127.0.0.1:") +
                 std::to_string(p);
  }
  router_port = start_router(cli, endpoints, "router", "0");
  if (traced_router) traced_router_port = start_router(cli, endpoints, "router-traced", "1");
  await_ready(router_port);
  if (traced_router) await_ready(traced_router_port);
}

bool Fleet::shutdown() {
  for (auto it = pids_.rbegin(); it != pids_.rend(); ++it) {
    if (*it > 0) ::kill(*it, SIGTERM);
  }
  const Clock::time_point t0 = Clock::now();
  for (pid_t& pid : pids_) {
    while (pid > 0) {
      const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) {
        pid = -1;
      } else if (ms_since(t0) > 5000) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        pid = -1;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  return ::waitpid(-1, nullptr, WNOHANG) < 0 && errno == ECHILD;
}

double Fleet::peak_rss_mb() const {
  double kb = 0.0;
  for (pid_t pid : pids_) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double v = 0.0;
        in >> v;
        kb += v;
        break;
      }
      in.ignore(1 << 16, '\n');
    }
  }
  return kb / 1024.0;
}

int Fleet::start_router(const std::string& cli, const std::string& endpoints,
                        const std::string& name, const std::string& trace_sample) {
  const std::string pf = work_dir_ + "/" + name + ".port";
  spawn(cli,
        {"route", "--endpoints", endpoints, "--port", "0", "--port-file", pf,
         "--trace-sample", trace_sample},
        name);
  return await_port(pf, pids_.back());
}

void Fleet::spawn(const std::string& exe, const std::vector<std::string>& args,
                  const std::string& name) {
  // Everything the child needs is built before fork: between fork and exec
  // the child only calls async-signal-safe functions.
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s{"DG_THREADS=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DG_THREADS=", 11) != 0) env_s.emplace_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& s : env_s) envp.push_back(s.data());
  envp.push_back(nullptr);
  const std::string log = work_dir_ + "/" + name + ".log";
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + log);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fd);
  if (pid < 0) throw std::runtime_error("fork failed");
  pids_.push_back(pid);
}

int Fleet::await_port(const std::string& port_file, pid_t pid) {
  const Clock::time_point t0 = Clock::now();
  while (ms_since(t0) < kStartTimeoutS * 1e3) {
    throw_if_interrupted();
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') return std::stoi(text);
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      for (pid_t& p : pids_) {
        if (p == pid) p = -1;
      }
      throw std::runtime_error("a fleet process exited during start-up; see " + work_dir_ +
                               "/*.log");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("fleet process did not publish its port");
}

// ---------------------------------------------------------------- layer figures

void fleet_layer_metrics(Fleet& fleet, std::uint64_t seed,
                         const std::vector<std::string>& replies, Result& r) {
  // Direct-to-worker latency and the router hop, on fresh plain requests.
  std::vector<double> direct_ms, hop_ms;
  {
    std::vector<std::unique_ptr<TcpClient>> workers;
    for (int p : fleet.worker_ports) workers.push_back(std::make_unique<TcpClient>("127.0.0.1", p));
    TcpClient routed("127.0.0.1", fleet.router_port);
    for (int i = 0; i < 40; ++i) {
      throw_if_interrupted();
      const std::uint64_t s = mix(seed, 0x40000 + i) & ((1ULL << 52) - 1);
      const std::string line = plain_line(1, s, 8, 19);
      TcpClient& home = *workers[dg::serve::shard::shard_of(s, workers.size())];
      Clock::time_point t = Clock::now();
      home.call(line);
      const double direct = ms_since(t);
      t = Clock::now();
      routed.call(line);
      hop_ms.push_back(ms_since(t) - direct);
      direct_ms.push_back(direct);
    }
  }
  double parse_us = 0.0, dump_us = 0.0, kb = 0.0;
  for (std::size_t i = 0; i < replies.size(); i += 7) {
    const Clock::time_point t = Clock::now();
    const json::Value v = json::parse(replies[i]);
    const Clock::time_point t1 = Clock::now();
    const std::string again = json::dump(v);
    dump_us += ms_since(t1) * 1e3;
    parse_us += ms_between(t, t1) * 1e3;
    kb += static_cast<double>(replies[i].size()) / 1024.0;
  }
  TcpClient router("127.0.0.1", fleet.router_port);
  const json::Value rs = call_json(router, "{\"op\":\"stats\"}");
  const json::Value& rt = *rs.find("router");
  const double hits = rt.number_or("cache_hits", 0);
  const double misses = rt.number_or("cache_misses", 0);
  r.set("serve.worker_call_ms", median(direct_ms), "ms");
  r.set("shard.hop_ms", median(hop_ms), "ms");
  r.set("serve.json_parse_us_per_kb", parse_us / kb, "us/kB");
  r.set("serve.json_dump_us_per_kb", dump_us / kb, "us/kB");
  r.set("shard.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

void fleet_probe(const Options& o, const dg::core::DoppelGanger& model,
                 const std::vector<int>& lengths, Result& r) {
  install_interrupt_handlers();
  const std::string package =
      std::filesystem::absolute(o.work_dir + "/fleet-probe.dgpkg").string();
  dg::core::save_package_file(package, model);
  Fleet fleet(o.cli, o.work_dir, package, false);
  constexpr int kDistinct = 32;
  std::vector<std::string> replies;
  {
    TcpClient client("127.0.0.1", fleet.router_port);
    for (int i = 0; i < 2 * kDistinct; ++i) {  // the second half repeats the first
      throw_if_interrupted();
      const std::uint64_t h = mix(mix(o.seed, 0xf1ee7), static_cast<std::uint64_t>(i % kDistinct));
      const int max_len = lengths[(h >> 20) % lengths.size()];
      replies.push_back(client.call(plain_line(i + 1, h & ((1ULL << 52) - 1), 8, max_len)));
      const json::Value v = json::parse(replies.back());
      Expect want;
      want.n = 8;
      want.max_len = max_len;
      const std::string e = check_reply(v, model.schema(), want);
      r.check(e.empty(), "fleet probe request " + std::to_string(i) + ": " + e);
      if (i >= kDistinct) {
        r.check(reply_body(v) == reply_body(json::parse(replies[i - kDistinct])),
                "fleet probe: repeated request " + std::to_string(i) + " differs");
      }
    }
  }
  fleet_layer_metrics(fleet, o.seed, replies, r);
  r.check(fleet.shutdown(), "a fleet process was left running after shutdown");
}

}  // namespace bench
