// perfbench: the DCDiff receiver benchmark binary. perfbench/run.py builds
// and drives it; it can also be run by hand:
//
//   perfbench --workload serve_final --seed 1 --seconds 10 --trace 0
//   perfbench --plan-profile --seed 1    (with DCDIFF_PLAN_PROFILE=1)
//
// --out-dir DIR (default .) receives the traced run's span logs.
//
// The last line of stdout is the run's report as one JSON object. The exit
// code is 0 when every output was correct, 1 when a check failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

using namespace perfbench;

int main(int argc, char** argv) {
  Options opt;
  bool plan_profile = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++a];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++a]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++a], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++a];
    } else if (arg == "--plan-profile") {
      plan_profile = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload serve_final|serve_latency"
                   " --seed N --seconds S --trace 0|1 "
                   "[--out-dir DIR] | --plan-profile --seed N\n",
                   argv[0]);
      return 2;
    }
  }
  if (plan_profile) return run_plan_profile(opt.seed);
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Report report;
  report.info["workload"] = opt.workload;
  report.info["seed"] = std::to_string(opt.seed);
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  // Requests kept in flight per workload: one full batch per worker, or a
  // single request (every batch then holds one request).
  int in_flight = 0;
  if (opt.workload == "serve_final") in_flight = kWorkers * kMaxBatch;
  if (opt.workload == "serve_latency") in_flight = 1;
  if (in_flight == 0) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  try {
    run_serve(opt, in_flight, report);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("exception: ") + e.what());
  }
  if (opt.trace) {
    SpanLog::instance().enable(false);
    SpanLog::instance().write_json(opt.out_dir + "/spans.json");
  }
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
