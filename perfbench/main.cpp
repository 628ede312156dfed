// lmbench — the repository benchmark.
//
//   lmbench --workload <toolchain|stream-cpu|offload|remote> --seed <n>
//           --seconds <s> --trace <0|1> [--commit <rev>] [--tmp <dir>]
//
// Runs one workload in a closed loop (one client; the next op starts only
// after the previous returns) for --seconds, checks every output, and
// prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer rows.
// Lines before it stamp the run (commit, build type, compiler, CPUs, seed)
// and carry notes (sample counts, substitution sets, decision changes).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::WorkloadResult;

int usage(const char* why) {
  std::fprintf(stderr,
               "lmbench: %s\nusage: lmbench --workload "
               "<toolchain|stream-cpu|offload|remote> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <rev>] [--tmp <dir>]\n",
               why);
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.tmp_dir = ".bench_build/perfbench-tmp";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--commit") {
        opt.commit = v;
      } else if (a == "--tmp") {
        opt.tmp_dir = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  opt.tmp_dir = (std::filesystem::path(opt.tmp_dir) /
                 std::to_string(::getpid())).string();

  WorkloadResult (*run)(const Options&) = nullptr;
  if (opt.workload == "toolchain") run = perfbench::run_toolchain;
  if (opt.workload == "stream-cpu") run = perfbench::run_stream_cpu;
  if (opt.workload == "offload") run = perfbench::run_offload;
  if (opt.workload == "remote") run = perfbench::run_remote;
  if (!run) return usage("unknown workload");

  std::printf(
      "stamp: {\"commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"nproc\": %d, \"seed\": %llu, \"workload\": \"%s\", "
      "\"seconds\": %s, \"trace\": %d}\n",
      opt.commit.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      perfbench::usable_cpus(), static_cast<unsigned long long>(opt.seed),
      opt.workload.c_str(), number(opt.seconds).c_str(), opt.trace ? 1 : 0);

  WorkloadResult r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmbench: %s: %s\n", opt.workload.c_str(), e.what());
    std::error_code ec;
    std::filesystem::remove_all(opt.tmp_dir, ec);
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.tmp_dir, ec);

  for (const auto& n : r.notes) std::printf("note: %s\n", n.c_str());
  std::string metrics;
  for (const auto& m : r.metrics.rows()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.failed == 0 && r.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
