// xcp_perfbench: runs one benchmark workload with a seed, checks its
// outputs, and prints every metric by name with its unit; the last line of
// stdout is the run's JSON result. perfbench/run.py builds and invokes it;
// NOTES.md describes the workloads and metrics.
//
//   xcp_perfbench --workload matrix|chain-long|committee
//                 --seed N --seconds S --trace 0|1
//                 --node-bin PATH --work-dir DIR [--trace-out FILE]
//
// Exit codes: 0 every gate passed, 1 a gate failed, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "committee.hpp"
#include "sweep.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "xcp_perfbench: %s\n"
               "usage: xcp_perfbench --workload "
               "matrix|chain-long|committee --seed N "
               "--seconds S --trace 0|1 --node-bin PATH --work-dir DIR "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, node_bin, work_dir, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--node-bin") {
      node_bin = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (seconds <= 0) usage("--seconds must be positive");
  if (trace < 0) usage("--trace must be 0 or 1");
  if (work_dir.empty()) usage("--work-dir is required");

  try {
    if (workload == "matrix" || workload == "chain-long") {
      perfbench::SweepOptions o;
      o.workload = workload;
      o.n = workload == "matrix" ? 2 : 64;
      o.seed = seed;
      o.seconds = seconds;
      o.traced = trace == 1;
      o.work_dir = work_dir;
      o.trace_out = trace_out;
      return perfbench::run_sweep_workload(o);
    }
    if (workload == "committee") {
      if (node_bin.empty()) usage("--node-bin is required");
      perfbench::CommitteeOptions o;
      o.node_bin = node_bin;
      o.work_dir = work_dir;
      o.seed = seed;
      o.seconds = seconds;
      o.traced = trace == 1;
      o.trace_out = trace_out;
      return perfbench::run_committee_workload(o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xcp_perfbench: %s\n", e.what());
    return 1;
  }
  usage("unknown workload '" + workload + "'");
}
