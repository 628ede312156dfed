#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double geomean_of_quantiles(const std::vector<std::vector<double>>& groups,
                            double q) {
  double log_sum = 0;
  size_t n = 0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    log_sum += std::log(std::max(quantile(g, q), 1e-9));
    ++n;
  }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

CpuRotor::CpuRotor() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
}

CpuRotor::~CpuRotor() { release(); }

void CpuRotor::release() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotor::pin(size_t slot) {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[slot], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

size_t CpuRotor::next() {
  const size_t slot = pos_++ % slots();
  pin(slot);
  return slot;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

Cycle::Cycle(size_t n, uint64_t seed) : state_(seed), order_(n) {
  for (size_t i = 0; i < n; ++i) order_[i] = i;
}

size_t Cycle::next() {
  if (pos_ == order_.size()) pos_ = 0;
  if (pos_ == 0) {
    lm::SplitMix64 rng(state_);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
    state_ = rng.next();
  }
  return order_[pos_++];
}

bool more_setup_reps(const std::vector<double>& setup_s, size_t min_reps) {
  return setup_s.size() < min_reps ||
         (sum(setup_s) < 2.0 && setup_s.size() < 25);
}

void run_cycles(Cycle& cycle, double seconds,
                const std::function<void(size_t)>& op) {
  auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    op(cycle.next());
  } while (Clock::now() < t_end || !cycle.at_cycle_start());
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : rows_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  rows_.push_back({name, value, unit});
}

void add_default_layer_rows(MetricSet& m) {
  // Order follows the layer → metric → workload map in README.md.
  static const std::pair<const char*, const char*> kRows[] = {
      {"lime.frontend_ms", "ms"},
      {"bytecode.compile_ms", "ms"},
      {"ir.extract_ms", "ms"},
      {"analysis.analyze_ms", "ms"},
      {"gpu.codegen_ms", "ms"},
      {"analysis.kernel_ranges_ms", "ms"},
      {"fpga.synth_ms", "ms"},
      {"runtime.artifact_build_ms", "ms"},
      {"cache.load_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.store_ms", "ms"},
      {"gpu.kernels", "count"},
      {"fpga.modules", "count"},
      {"fpga.verilog_kb", "KiB"},
      {"store.artifacts", "count"},
      {"bytecode.compute_cpu_ms", "ms"},
      {"runtime.fifo_blocked_ms", "ms"},
      {"runtime.parks_per_step", "ratio"},
      {"runtime.steals_per_op", "count"},
      {"runtime.wakeups_per_op", "count"},
      {"runtime.scaling_w1_over_wn", "ratio"},
      {"runtime.queue_wait_ms", "ms"},
      {"runtime.sched_ms", "ms"},
      {"runtime.fifo_high_water", "count"},
      {"runtime.construct_ms", "ms"},
      {"runtime.decision_changes", "count"},
      {"gpu.map_ms", "ms"},
      {"gpu.compute_ms", "ms"},
      {"gpu.launches", "count"},
      {"gpu.work_items", "count"},
      {"gpu.native_launches", "count"},
      {"runtime.calibration_ms", "ms"},
      {"runtime.candidates_profiled", "count"},
      {"rtl.compute_ms", "ms"},
      {"serde.ms", "ms"},
      {"serde.bytes_to_device_per_elem", "B/elem"},
      {"serde.bytes_from_device_per_elem", "B/elem"},
      {"net.attach_ms", "ms"},
      {"net.rpc_wait_ms", "ms"},
      {"net.rtt_p50_us", "us"},
      {"net.server_exec_p50_us", "us"},
      {"net.requests_per_op", "count"},
      {"net.bytes_per_elem", "B/elem"},
      {"net.retries", "count"},
      {"net.fallbacks", "count"},
      {"obs.op_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.layer_coverage", "ratio"},
      {"obs.unattributed_ms", "ms"},
  };
  for (const auto& [name, unit] : kRows) m.set(name, 0.0, unit);
}

void OpLog::fail(const std::string& what) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "perfbench: op failed: %s\n", what.c_str());
}

void add_op_metrics(const OpLog& log, WorkloadResult& r) {
  r.attempted += log.attempted;
  r.failed += log.failed;
  const double p50 = geomean_of_quantiles(log.op_ms, 0.5);
  // op_p75: the typical program's p50 times the p75 of every op's time
  // over its own program's median. One spread estimate from all of the
  // run's samples rather than one per program from a few dozen each. The
  // p95 goes to the notes only: on a shared VM it reads the host's bursts
  // (README.md, "End-to-end metrics").
  // elems_per_s: each program's ops at its median op time, so a burst of
  // host load that stalls a few ops does not carry into the throughput.
  std::vector<double> rel;
  double elems = 0, total_s = 0;
  for (size_t p = 0; p < log.op_ms.size(); ++p) {
    if (log.op_ms[p].empty()) continue;
    const double m = median(log.op_ms[p]);
    for (double ms : log.op_ms[p]) rel.push_back(ms / m);
    elems += log.elems[p];
    total_s += m * static_cast<double>(log.op_ms[p].size()) / 1e3;
  }
  r.metrics.set("op_p50_ms", p50, "ms");
  r.metrics.set("op_p75_ms", p50 * quantile(rel, 0.75), "ms");
  r.metrics.set("elems_per_s", total_s > 0 ? elems / total_s : 0, "1/s");
  r.metrics.set("ok_ratio",
                log.attempted ? static_cast<double>(log.attempted -
                                                    log.failed) /
                                    static_cast<double>(log.attempted)
                              : 0,
                "ratio");
  r.notes.push_back("op samples: " + std::to_string(rel.size()) + " over " +
                    std::to_string(log.op_ms.size()) + " programs; op p95 " +
                    std::to_string(p50 * quantile(rel, 0.95)) + " ms");
}

lm::runtime::CompileOptions rw_cache(const std::string& dir) {
  lm::runtime::CompileOptions o;
  o.cache.mode = lm::cache::CacheMode::kReadWrite;
  o.cache.dir = dir;
  return o;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string substitution_key(const lm::runtime::RuntimeStats& s) {
  std::vector<std::string> parts;
  for (const auto& rec : s.substitutions) {
    parts.push_back(rec.task_ids + "@" + lm::runtime::to_string(rec.device) +
                    (rec.remote ? "@remote" : ""));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const auto& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

bool outputs_match(const lm::bc::Value& got, const lm::bc::Value& want) {
  return lm::workloads::results_match(got, want, 1e-3);
}

ScopedRecorder::ScopedRecorder() { rec_.install(); }
ScopedRecorder::~ScopedRecorder() { rec_.uninstall(); }

double span_ms(const std::vector<lm::obs::TraceEvent>& events,
               const char* category, const std::string& prefix) {
  double us = 0;
  for (const auto& e : events) {
    if (e.phase == lm::obs::TraceEvent::Phase::kComplete &&
        std::string_view(e.category) == category &&
        e.name.compare(0, prefix.size(), prefix) == 0) {
      us += e.dur_us;
    }
  }
  return us / 1e3;
}

std::map<std::string, double> attribution_ms(
    const std::vector<lm::obs::Attribution>& attrs) {
  std::map<std::string, double> out;
  for (const auto& a : attrs) {
    for (const auto& c : a.categories) out[c.name] += c.us / 1e3;
    out["wall"] += a.wall_us / 1e3;
  }
  return out;
}

}  // namespace perfbench
