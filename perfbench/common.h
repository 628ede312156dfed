// Shared plumbing for lmbench: options, clocks, sample
// statistics, the result printer and the per-op bookkeeping every workload
// uses. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bytecode/value.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Source revision stamped on the result (passed in by run.py).
  std::string commit = "unknown";
  /// Working directory inside the checkout (cache directories live here).
  std::string tmp_dir;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double sum(const std::vector<double>& v);
/// Geometric mean over the non-empty groups of each group's q-quantile.
/// With one group per program, every program weighs the same and a
/// program's quantile comes from its own samples only: a pooled quantile
/// of a mix of programs whose costs differ several-fold sits on the edge
/// between two programs, and a few samples more or less flip it.
double geomean_of_quantiles(const std::vector<std::vector<double>>& groups,
                            double q);

/// Executor workers the run workloads may use: the CPUs this process may
/// run on (sched_getaffinity), at least 1.
int usable_cpus();

/// Moves the calling thread to the next usable CPU on each next(), and
/// restores its original affinity on release() and on destruction. For
/// single-threaded ops: on a host whose CPUs run at different speeds (a
/// shared or interrupt-heavy CPU), every run then samples every CPU equally
/// instead of whichever CPU the scheduler happened to keep the thread on.
/// Threads the pinned thread creates inherit its CPU.
class CpuRotor {
 public:
  CpuRotor();
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  /// Number of CPUs rotated over (1 when there is nothing to rotate).
  size_t slots() const { return cpus_.size() < 2 ? 1 : cpus_.size(); }
  /// Pins to CPU number `slot` (< slots()) of the rotation.
  void pin(size_t slot);
  /// Pins to the next CPU of the rotation and returns its slot.
  size_t next();
  void release();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t pos_ = 0;
};

/// A seeded visiting order over n items, reshuffled every cycle. Loops
/// that run whole cycles keep the same op mix whatever the seed.
class Cycle {
 public:
  Cycle(size_t n, uint64_t seed);
  size_t next();
  /// True before the first item and after the last item of a cycle.
  bool at_cycle_start() const { return pos_ == 0 || pos_ == order_.size(); }

 private:
  uint64_t state_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

/// Whether set-up should run once more, given the durations (s) of the
/// set-ups run so far: at least `min_reps`, then more while they add up to
/// under two seconds (a cheap set-up is short enough that a single slow
/// moment of the host would otherwise move its median), at most 25.
bool more_setup_reps(const std::vector<double>& setup_s, size_t min_reps);

/// Runs `op` in whole cycles of `cycle` until `seconds` have passed.
void run_cycles(Cycle& cycle, double seconds,
                const std::function<void(size_t)>& op);

/// One named number with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list with replace-on-rename semantics (a workload may
/// overwrite a default row with a measured one).
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& rows() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

/// What a workload hands back to main(): op accounting plus the metrics
/// of the requested mode (end-to-end when untraced, per-layer when traced).
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Free-form lines printed before the result (decision logs, samples).
  std::vector<std::string> notes;
};

/// The per-layer rows every traced run prints, zero-initialised in one
/// place so each workload overwrites only the layers it exercises.
void add_default_layer_rows(MetricSet& m);

/// Closed-loop op accounting per program: latency samples, element
/// counts, failures.
struct OpLog {
  explicit OpLog(size_t programs) : op_ms(programs), elems(programs) {}

  std::vector<std::vector<double>> op_ms;
  std::vector<double> elems;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void ok(size_t program, double ms, double n) {
    op_ms[program].push_back(ms);
    elems[program] += n;
    ++attempted;
  }
  void fail(const std::string& what);
};

/// Adds op_p50_ms (geometric mean over programs of each program's p50),
/// op_p75_ms (op_p50_ms times the p75 of op time over its program's p50),
/// elems_per_s (input elements over the op time they took at each
/// program's median op time), ok_ratio, and a note with the sample count
/// and the p95 counterpart of op_p75_ms.
void add_op_metrics(const OpLog& log, WorkloadResult& r);

/// Compile options with the artifact cache in read-write mode at `dir`.
lm::runtime::CompileOptions rw_cache(const std::string& dir);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// "IntPipe.scale@gpu+..." — the substitution set of one run, sorted, for
/// decision-change accounting. Remote winners carry an "@remote" marker.
std::string substitution_key(const lm::runtime::RuntimeStats& s);

/// Exact for ints and bits, relative 1e-3 for floats.
bool outputs_match(const lm::bc::Value& got, const lm::bc::Value& want);

/// A trace recorder installed for the lifetime of the object.
class ScopedRecorder {
 public:
  ScopedRecorder();
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;
  lm::obs::TraceRecorder& rec() { return rec_; }

 private:
  lm::obs::TraceRecorder rec_;
};

/// Sum of kComplete durations (ms) whose category equals `category` and
/// whose name starts with `prefix`.
double span_ms(const std::vector<lm::obs::TraceEvent>& events,
               const char* category, const std::string& prefix);

/// Category totals (ms) over a runtime's critical-path attributions.
std::map<std::string, double> attribution_ms(
    const std::vector<lm::obs::Attribution>& attrs);

/// Workload entry points (one file each).
WorkloadResult run_toolchain(const Options& opt);
WorkloadResult run_stream_cpu(const Options& opt);
WorkloadResult run_offload(const Options& opt);
WorkloadResult run_remote(const Options& opt);

}  // namespace perfbench
