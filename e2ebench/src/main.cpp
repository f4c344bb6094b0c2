// dgbench: one end-to-end benchmark for DoppelGANger training, offline
// generation and routed serving. Usually started through run.py, which
// builds it first:
//
//   dgbench --workload train-gcut|train-dp-gcut|generate-wwt|serve-gcut
//           --seed N --seconds S --trace 0|1 --cli PATH/dgcli --work-dir DIR
//   dgbench --selftest
//
// The last line of stdout is the result object: correctness, attempted and
// failed operations, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exit status 0 means every check passed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

bench::Options parse(int argc, char** argv) {
  bench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--cli") {
      o.cli = v;
    } else if (k == "--work-dir") {
      o.work_dir = v;
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  if (o.work_dir.empty()) throw std::runtime_error("--work-dir is required");
  if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bench::since_start_s();  // pins the set-up clock's origin
  try {
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
      const int bad = bench::run_selftest();
      std::printf("selftest: %s\n", bad == 0 ? "PASS" : "FAIL");
      return bad == 0 ? 0 : 1;
    }
    const bench::Options o = parse(argc, argv);
    std::filesystem::create_directories(o.work_dir);
    bench::Result r;
    if (o.workload == "train-gcut") {
      bench::run_train(o, false, r);
    } else if (o.workload == "train-dp-gcut") {
      bench::run_train(o, true, r);
    } else if (o.workload == "generate-wwt") {
      bench::run_generate(o, r);
    } else if (o.workload == "serve-gcut") {
      bench::run_serve(o, r);
    } else {
      throw std::runtime_error("unknown workload '" + o.workload + "'");
    }
    for (const auto& [name, m] : r.metrics) {
      r.check(std::isfinite(m.value), "metric " + name + " is not a finite number");
    }
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    std::printf("%s\n", r.to_json().c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dgbench: %s\n", e.what());
    return 2;
  }
}
