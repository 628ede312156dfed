// Workloads `stream-cpu`, `offload` and `remote`: one op is a fresh
// LiquidRuntime plus one entry-point call(), as one lmc invocation does.
// Compilation, server start-up and warm-up happen in set-up. Native GPU
// kernels are never registered (lmc never does), so every GPU launch runs
// the compiler's kernel IR.
//
// The traced run repeats the op loop with a trace recorder installed per
// op and reads what the program already exposes: critical-path
// attribution categories, trace spans (gpu launch/map, fpga rtl), the
// runtime's metric counters, device and transfer statistics, and the
// remote session and server histograms.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "cache/artifact_cache.h"
#include "common.h"
#include "genprog.h"
#include "net/attach.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "runtime/artifact.h"
#include "runtime/liquid_compiler.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace lm;
using runtime::Placement;

constexpr size_t kSetupReps = 5;
constexpr int kInputSets = 2;

enum class Kind { kGraph, kMap, kReduce };

/// One program of a run workload, with its seeded inputs and expected
/// outputs (computed once, outside every timed region).
struct RunProgram {
  std::string label;
  std::string source;
  std::string entry;
  Placement placement = Placement::kAuto;
  Kind kind = Kind::kGraph;
  /// Map/reduce kernel id, and the entry-argument index of each kernel
  /// parameter (the traced run calls GpuKernelArtifact::run_map directly).
  std::string kernel_id;
  std::vector<int> kernel_arg_order;
  std::vector<std::vector<bc::Value>> inputs;
  std::vector<bc::Value> expected;
  double elems = 0;

  std::unique_ptr<runtime::CompiledProgram> compiled;
  /// Remote workload: per CPU slot (RunWorkload::rotor_), a server-side
  /// copy of the program and a server whose threads run on that CPU.
  std::vector<std::unique_ptr<runtime::CompiledProgram>> server_programs;
  std::vector<std::unique_ptr<net::DeviceServer>> servers;
  /// First substitution set seen for this program (decision changes).
  std::string first_pick;
  std::vector<double> op_ms;
};

RunProgram from_suite(const workloads::Workload& w, size_t n, uint64_t seed,
                      Placement placement) {
  RunProgram p;
  p.label = w.name;
  p.source = w.lime_source;
  p.entry = w.entry;
  p.placement = placement;
  p.kernel_id = w.kernel_id;
  for (int k = 0; k < kInputSets; ++k) {
    auto args = w.make_args(n, seed * 977 + static_cast<uint64_t>(k));
    p.expected.push_back(w.reference(args));
    p.inputs.push_back(std::move(args));
  }
  return p;
}

RunProgram from_generated(const GenPipeline& g, size_t n, uint64_t seed,
                          Placement placement) {
  RunProgram p;
  p.label = g.class_name;
  p.source = g.source;
  p.entry = g.entry;
  p.placement = placement;
  for (int k = 0; k < kInputSets; ++k) {
    SplitMix64 rng(seed * 7919 + static_cast<uint64_t>(k));
    std::vector<int32_t> in(n);
    for (auto& x : in) x = static_cast<int32_t>(rng.next_range(-1 << 20, 1 << 20));
    p.expected.push_back(
        bc::Value::array(bc::make_i32_array(g.reference(in), true)));
    p.inputs.push_back({bc::Value::array(bc::make_i32_array(in, true))});
  }
  return p;
}

/// Elements an op feeds the system: the length of the array operand the
/// kernel or source walks (the last array argument for maps, whose other
/// arrays are whole-array broadcasts).
double input_elements(const RunProgram& p) {
  double n = 0;
  for (const auto& v : p.inputs[0]) {
    if (v.kind() == bc::ValueKind::kArray) {
      n = static_cast<double>(v.as_array()->size());
      if (p.kind == Kind::kGraph || p.kind == Kind::kReduce) break;
    }
  }
  return n;
}

struct DeviceSnapshot {
  uint64_t launches = 0, native = 0, items = 0;
  uint64_t bytes_to = 0, bytes_from = 0;
};

DeviceSnapshot snapshot(const runtime::CompiledProgram& cp) {
  DeviceSnapshot s;
  if (cp.gpu_device) {
    const auto& g = cp.gpu_device->stats();
    s.launches = g.launches.load();
    s.native = g.native_launches.load();
    s.items = g.work_items.load();
  }
  for (const runtime::Artifact* a : cp.store.artifacts()) {
    s.bytes_to += a->transfer_stats().bytes_to_device.load();
    s.bytes_from += a->transfer_stats().bytes_from_device.load();
  }
  return s;
}

/// Everything one op exposes after its call, read outside the timed region.
struct OpDetail {
  double construct_ms = 0;
  double attach_ms = 0;
  runtime::RuntimeStats stats;
  std::map<std::string, uint64_t> counters;
  std::vector<obs::Attribution> attrs;
  std::vector<obs::TraceEvent> events;
  double rtt_p50_us = 0;
  uint64_t remote_bytes_to = 0, remote_bytes_from = 0;
  DeviceSnapshot before, after;  // the program's devices around the op
};

class RunWorkload {
 public:
  RunWorkload(const Options& opt, std::vector<RunProgram> programs,
              size_t workers, bool remote)
      : opt_(opt),
        programs_(std::move(programs)),
        workers_(workers),
        remote_(remote),
        root_(fs::path(opt.tmp_dir) / opt.workload) {
    for (auto& p : programs_) p.elems = input_elements(p);
  }

  ~RunWorkload() {
    for (auto& p : programs_) {
      for (auto& server : p.servers) server->stop();
    }
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  RunWorkload(const RunWorkload&) = delete;
  RunWorkload& operator=(const RunWorkload&) = delete;

  /// Set-up, several times (more_setup_reps): compile every program
  /// through a fresh cache directory (filling it), start the device
  /// servers, and run one warm-up op per program. The last repetition's
  /// products serve the run, and its cache directory serves the warm
  /// compiles.
  void setup() {
    for (int rep = 0; more_setup_reps(setup_s_, kSetupReps); ++rep) {
      fs::path dir = root_ / ("cache-" + std::to_string(rep));
      fs::remove_all(dir);
      for (auto& p : programs_) {
        for (auto& server : p.servers) server->stop();
        p.servers.clear();
        p.server_programs.clear();
        p.compiled.reset();
      }
      auto t0 = Clock::now();
      for (auto& p : programs_) {
        p.compiled = runtime::compile(p.source, compile_options(dir));
        if (!p.compiled->ok()) {
          throw std::runtime_error("set-up compile failed: " + p.label);
        }
        // Remote: one server per CPU, started from this thread while it is
        // pinned to that CPU, so the server's threads run there.
        for (size_t slot = 0; remote_ && slot < rotor_.slots(); ++slot) {
          rotor_.pin(slot);
          p.server_programs.push_back(
              runtime::compile(p.source, compile_options("")));
          p.servers.push_back(
              std::make_unique<net::DeviceServer>(*p.server_programs.back()));
          p.servers.back()->start();
        }
        if (remote_) rotor_.release();
      }
      OpLog warmup(programs_.size());
      for (size_t i = 0; i < programs_.size(); ++i) op(i, 0, warmup, nullptr);
      setup_s_.push_back(ms_since(t0) / 1e3);
      if (warmup.failed) throw std::runtime_error("warm-up op failed");
      if (!cache_dir_.empty()) fs::remove_all(cache_dir_);
      cache_dir_ = dir;
    }
  }

  /// Compile options for every program of a run workload: the cache at
  /// `cache_dir` (none when empty) and a simulated GPU of one compute unit,
  /// so a kernel launch runs on the thread that issues it instead of
  /// spawning a thread per CPU. The parallel capacity of a shared 4-vCPU
  /// VM swings from moment to moment: four busy processes ran 1.1x to 2.9x
  /// faster than one within a minute, and the GPU maps of `offload` ran
  /// 3x faster in some runs than in others. One compute unit keeps the
  /// kernel-IR cost and drops the host's share of the parallel fan-out.
  static runtime::CompileOptions compile_options(const std::string& cache_dir) {
    runtime::CompileOptions o;
    if (!cache_dir.empty()) o = rw_cache(cache_dir);
    o.gpu_config.compute_units = 1;
    return o;
  }

  runtime::RuntimeConfig config_for(const RunProgram& p, size_t workers) const {
    runtime::RuntimeConfig c;
    c.placement = p.placement;
    c.worker_threads = workers;
    if (remote_) {
      c.prefer_remote = true;
      c.remote_endpoints = {p.servers[slot_]->endpoint()};
    }
    return c;
  }

  /// One op on program `i`: fresh runtime (+ attach), call, teardown —
  /// all timed — then the output check and the path guards. Returns the
  /// op time, or a negative value when the op failed.
  double op(size_t i, size_t input, OpLog& log, OpDetail* detail,
            size_t workers = 0) {
    RunProgram& p = programs_[i];
    // Remote: the op's threads (created by this one) and the server it
    // talks to share one CPU; the CPU rotates from op to op.
    if (remote_) slot_ = rotor_.next();
    struct Unpin {
      CpuRotor* rotor;
      ~Unpin() {
        if (rotor) rotor->release();
      }
    } unpin{remote_ ? &rotor_ : nullptr};
    const runtime::RuntimeConfig cfg =
        config_for(p, workers ? workers : workers_);
    std::vector<bc::Value> args = p.inputs[input % p.inputs.size()];
    const DeviceSnapshot before = snapshot(*p.compiled);
    std::optional<ScopedRecorder> recorder;
    if (detail) recorder.emplace();
    bc::Value out;
    double ms = 0;
    std::string pick;
    uint64_t fallbacks = 0;
    bool all_remote = true;
    try {
      auto t0 = Clock::now();
      auto rt = std::make_unique<runtime::LiquidRuntime>(*p.compiled, cfg);
      double construct_ms = ms_since(t0);
      net::AttachResult attached;
      double attach_ms = 0;
      if (remote_) {
        auto ta = Clock::now();
        attached = net::attach_remote_devices(*rt, *p.compiled);
        attach_ms = ms_since(ta);
        if (attached.endpoints_ok.empty()) {
          throw std::runtime_error("attach failed");
        }
      }
      out = rt->call(p.entry, std::move(args));
      ms = ms_since(t0);

      // Untimed: read what the runtime exposes before tearing it down.
      const runtime::RuntimeStats& st = rt->stats();
      pick = substitution_key(st);
      for (const auto& s : st.substitutions) all_remote &= s.remote;
      fallbacks = rt->metrics().value("net.remote_fallbacks");
      if (detail) {
        detail->construct_ms = construct_ms;
        detail->attach_ms = attach_ms;
        detail->stats = st;
        detail->counters = rt->metrics().snapshot();
        detail->attrs = rt->attributions();
        for (const auto& s : attached.sessions) {
          detail->rtt_p50_us = s->rtt_histogram().percentile_us(50);
        }
        for (const runtime::Artifact* a : rt->remote_store().artifacts()) {
          detail->remote_bytes_to += a->transfer_stats().bytes_to_device;
          detail->remote_bytes_from += a->transfer_stats().bytes_from_device;
        }
      }

      auto t1 = Clock::now();
      rt.reset();
      attached.sessions.clear();
      ms += ms_since(t1);
      // The in-process servers' connection threads record into this op's
      // trace recorder; let them see the disconnect and exit before the
      // recorder goes away.
      if (detail && remote_) wait_servers_idle();
    } catch (const std::exception& e) {
      log.fail(p.label + ": " + e.what());
      return -1;
    }
    const DeviceSnapshot after = snapshot(*p.compiled);
    if (detail) {
      detail->events = recorder->rec().events();
      detail->before = before;
      detail->after = after;
    }
    if (!outputs_match(out, p.expected[input % p.expected.size()])) {
      log.fail(p.label + ": output differs from the reference");
      return -1;
    }
    if (after.native != before.native) {
      log.fail(p.label + ": a native kernel ran instead of kernel IR");
      return -1;
    }
    if (remote_ && (!all_remote || pick.empty() || fallbacks > 0)) {
      log.fail(p.label + ": not served remotely (" + pick + ", fallbacks " +
               std::to_string(fallbacks) + ")");
      return -1;
    }
    if (p.first_pick.empty()) {
      p.first_pick = pick;
    } else if (pick != p.first_pick) {
      ++decision_changes_;
      notes_.push_back("decision change: " + p.label + ": " + p.first_pick +
                       " -> " + pick);
    }
    log.ok(i, ms, p.elems);
    p.op_ms.push_back(ms);
    return ms;
  }

  void wait_servers_idle() const {
    auto deadline = Clock::now() + std::chrono::seconds(5);
    for (const auto& p : programs_) {
      for (const auto& server : p.servers) {
        while (server->active_connections() > 0) {
          if (Clock::now() > deadline) {
            throw std::runtime_error("device server kept a connection open");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }
  }

  /// Untraced closed loop: end-to-end metrics.
  WorkloadResult measure() {
    WorkloadResult r;
    OpLog log(programs_.size());
    Cycle cycle(programs_.size(), opt_.seed ^ 0x5eed);
    size_t n = 0;
    std::vector<std::vector<double>> warm_ms(programs_.size());
    CpuRotor rotor;  // compile() is single-threaded: see CpuRotor
    run_cycles(cycle, opt_.seconds, [&](size_t i) {
      if (op(i, n++, log, nullptr) < 0) return;
      // The program's warm compile, timed apart from the op. Spread over
      // the run rather than taken in one burst, so one slow moment of the
      // host cannot shift the whole sample.
      rotor.next();
      auto t0 = Clock::now();
      auto cp = runtime::compile(programs_[i].source,
                                 compile_options(cache_dir_.string()));
      warm_ms[i].push_back(ms_since(t0));
      rotor.release();  // the next op's runtime threads inherit affinity
      if (!cp->ok() || cp->cache->metrics().value("cache.misses") != 0) {
        log.fail(programs_[i].label + ": warm compile missed the cache");
      }
    });
    add_op_metrics(log, r);
    r.metrics.set("warm_compile_p50_ms", geomean_of_quantiles(warm_ms, 0.5),
                  "ms");
    r.metrics.set("setup_s", median(setup_s_), "s");
    r.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    finish_notes(r);
    return r;
  }

  /// Traced run: untraced baseline cycles, optionally a workers=1 pass,
  /// then traced cycles whose per-op details feed the per-layer rows.
  WorkloadResult measure_traced(bool scaling_pass) {
    WorkloadResult r;
    add_default_layer_rows(r.metrics);
    OpLog log(programs_.size());
    Cycle cycle(programs_.size(), opt_.seed ^ 0x5eed);
    size_t n = 0;
    const double share = scaling_pass ? 0.25 : 0.3;

    // Op times per program, so ratios between passes compare each program
    // with itself (see geomean_of_quantiles).
    std::vector<std::vector<double>> untraced(programs_.size());
    run_cycles(cycle, opt_.seconds * share, [&](size_t i) {
      double ms = op(i, n++, log, nullptr);
      if (ms >= 0) untraced[i].push_back(ms);
    });
    if (scaling_pass) {
      std::vector<std::vector<double>> w1(programs_.size());
      run_cycles(cycle, opt_.seconds * share, [&](size_t i) {
        double ms = op(i, n++, log, nullptr, 1);
        if (ms >= 0) w1[i].push_back(ms);
      });
      r.metrics.set("runtime.scaling_w1_over_wn",
                    geomean_of_quantiles(w1, 0.5) /
                        geomean_of_quantiles(untraced, 0.5),
                    "ratio");
      r.notes.push_back("workers=1 vs workers=" + std::to_string(workers_) +
                        " op p50, geometric mean over programs");
    }

    Totals t;
    std::vector<std::vector<double>> traced(programs_.size());
    run_cycles(cycle, opt_.seconds * (1.0 - (scaling_pass ? 2 : 1) * share),
               [&](size_t i) {
                 OpDetail d;
                 const size_t input = n++;
                 double ms = op(i, input, log, &d);
                 if (ms < 0) return;
                 traced[i].push_back(ms);
                 accumulate(programs_[i], ms, d, t);
                 traced_extras(i, input, ms, d, t, log);
               });
    report(t, traced, untraced, r);
    r.attempted += log.attempted;
    r.failed += log.failed;
    finish_notes(r);
    return r;
  }

 private:
  struct Totals {
    double ops = 0, op_ms = 0, elems = 0, attributed = 0;
    double construct = 0, attach = 0;
    std::map<std::string, double> cat;  // attribution categories, ms
    double gpu_compute = 0, rtl = 0, serde_map = 0;
    double launches = 0, items = 0, native = 0;
    double bytes_to = 0, bytes_from = 0;
    double steps = 0, parks = 0, steals = 0, wakeups = 0, high_water = 0;
    double candidates = 0, adaptive_ops = 0;
    double requests = 0, net_bytes = 0, retries = 0, fallbacks = 0;
    std::vector<double> rtt_p50;
    double map_direct = 0, map_ops = 0;
    std::vector<double> calibration;
  };

  void accumulate(const RunProgram& p, double ms, const OpDetail& d,
                  Totals& t) {
    const DeviceSnapshot& before = d.before;
    const DeviceSnapshot& after = d.after;
    t.ops += 1;
    t.op_ms += ms;
    t.elems += p.elems;
    t.construct += d.construct_ms;
    t.attach += d.attach_ms;
    auto cats = attribution_ms(d.attrs);
    for (const auto& [k, v] : cats) t.cat[k] += v;
    double launch = span_ms(d.events, "gpu", "launch:");
    t.gpu_compute += launch;
    t.rtl += span_ms(d.events, "fpga", "rtl:");
    double map = span_ms(d.events, "gpu", "map:") +
                 span_ms(d.events, "gpu", "reduce:");
    if (p.kind != Kind::kGraph) t.serde_map += map - launch;
    // Attributed time: runtime construction, attach, the graph runs'
    // critical path, and the device map/reduce calls of map ops.
    t.attributed += d.construct_ms + d.attach_ms + cats["wall"] +
                    (p.kind != Kind::kGraph ? map : 0.0);
    t.launches += static_cast<double>(after.launches - before.launches);
    t.items += static_cast<double>(after.items - before.items);
    t.native += static_cast<double>(after.native - before.native);
    t.bytes_to += static_cast<double>(after.bytes_to - before.bytes_to +
                                      d.remote_bytes_to);
    t.bytes_from += static_cast<double>(after.bytes_from - before.bytes_from +
                                        d.remote_bytes_from);
    auto c = [&](const char* name) {
      auto it = d.counters.find(name);
      return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    t.steps += c("executor.steps");
    t.parks += c("executor.parks");
    t.steals += c("executor.steals");
    t.wakeups += c("executor.wakeups");
    t.high_water = std::max(t.high_water,
                            static_cast<double>(d.stats.fifo_high_water));
    if (p.placement == Placement::kAdaptive) {
      t.candidates += static_cast<double>(d.stats.candidates_profiled);
      t.adaptive_ops += 1;
    }
    t.requests += c("net.requests");
    t.net_bytes += c("net.bytes_sent") + c("net.bytes_received");
    t.retries += c("net.request_retries");
    t.fallbacks += c("net.remote_fallbacks");
    if (remote_) t.rtt_p50.push_back(d.rtt_p50_us);
  }

  /// Extra traced-only probes outside the op's timed region: a direct
  /// run_map/run_reduce on the op's args (gpu.map_ms), and for adaptive
  /// ops the same input at kAuto (calibration = adaptive − auto when
  /// both pick the same artifacts).
  void traced_extras(size_t i, size_t input, double op_ms, const OpDetail& d,
                     Totals& t, OpLog& log) {
    RunProgram& p = programs_[i];
    const auto& args = p.inputs[input % p.inputs.size()];
    if (p.kind != Kind::kGraph) {
      auto* a = dynamic_cast<runtime::GpuKernelArtifact*>(
          p.compiled->store.find(p.kernel_id, runtime::DeviceKind::kGpu));
      if (!a) return;
      std::vector<bc::Value> kargs;
      uint32_t mask = 0;
      for (size_t k = 0; k < p.kernel_arg_order.size(); ++k) {
        const bc::Value& v = args[static_cast<size_t>(p.kernel_arg_order[k])];
        kargs.push_back(v);
        if (v.kind() == bc::ValueKind::kArray &&
            !a->manifest().param_types[k]->is_array_like()) {
          mask |= 1u << k;
        }
      }
      auto t0 = Clock::now();
      bc::Value out = p.kind == Kind::kMap ? a->run_map(kargs, mask)
                                           : a->run_reduce(kargs[0]);
      t.map_direct += ms_since(t0);
      t.map_ops += 1;
      if (!outputs_match(out, p.expected[input % p.expected.size()])) {
        log.fail(p.label + ": direct run_map output differs from the reference");
      }
      return;
    }
    if (p.placement == Placement::kAdaptive) {
      runtime::RuntimeConfig cfg = config_for(p, workers_);
      cfg.placement = Placement::kAuto;
      std::vector<bc::Value> a2 = args;
      auto t0 = Clock::now();
      std::string pick;
      {
        runtime::LiquidRuntime rt(*p.compiled, cfg);
        rt.call(p.entry, std::move(a2));
        pick = substitution_key(rt.stats());
      }
      double auto_ms = ms_since(t0);
      if (pick == substitution_key(d.stats)) {
        t.calibration.push_back(op_ms - auto_ms);
      }
    }
  }

  void report(const Totals& t, const std::vector<std::vector<double>>& traced,
              const std::vector<std::vector<double>>& untraced,
              WorkloadResult& r) {
    auto& m = r.metrics;
    const double ops = t.ops > 0 ? t.ops : 1;
    auto cat = [&](const char* name) {
      auto it = t.cat.find(name);
      return it == t.cat.end() ? 0.0 : it->second;
    };
    m.set("runtime.construct_ms", t.construct / ops, "ms");
    m.set("net.attach_ms", t.attach / ops, "ms");
    m.set("bytecode.compute_cpu_ms", cat("compute:cpu") / ops, "ms");
    m.set("runtime.fifo_blocked_ms", cat("fifo-blocked") / ops, "ms");
    m.set("runtime.queue_wait_ms", cat("queue-wait") / ops, "ms");
    m.set("runtime.sched_ms", cat("sched") / ops, "ms");
    m.set("net.rpc_wait_ms", cat("rpc-wait") / ops, "ms");
    m.set("serde.ms", (cat("serde") + t.serde_map) / ops, "ms");
    m.set("runtime.parks_per_step", t.steps > 0 ? t.parks / t.steps : 0,
          "ratio");
    m.set("runtime.steals_per_op", t.steals / ops, "count");
    m.set("runtime.wakeups_per_op", t.wakeups / ops, "count");
    m.set("runtime.fifo_high_water", t.high_water, "count");
    m.set("runtime.decision_changes", static_cast<double>(decision_changes_),
          "count");
    m.set("gpu.map_ms", t.map_ops > 0 ? t.map_direct / t.map_ops : 0, "ms");
    m.set("gpu.compute_ms", t.gpu_compute / ops, "ms");
    m.set("gpu.launches", t.launches / ops, "count");
    m.set("gpu.work_items", t.items / ops, "count");
    m.set("gpu.native_launches", t.native, "count");
    m.set("runtime.calibration_ms", median(t.calibration), "ms");
    m.set("runtime.candidates_profiled",
          t.adaptive_ops > 0 ? t.candidates / t.adaptive_ops : 0, "count");
    m.set("rtl.compute_ms", t.rtl / ops, "ms");
    m.set("serde.bytes_to_device_per_elem",
          t.elems > 0 ? t.bytes_to / t.elems : 0, "B/elem");
    m.set("serde.bytes_from_device_per_elem",
          t.elems > 0 ? t.bytes_from / t.elems : 0, "B/elem");
    m.set("net.rtt_p50_us", median(t.rtt_p50), "us");
    if (remote_) {
      std::vector<double> exec;
      for (const auto& p : programs_) {
        for (const auto& server : p.servers) {
          exec.push_back(server->exec_histogram().percentile_us(50));
        }
      }
      m.set("net.server_exec_p50_us", median(exec), "us");
    }
    m.set("net.requests_per_op", t.requests / ops, "count");
    m.set("net.bytes_per_elem", t.elems > 0 ? t.net_bytes / t.elems : 0,
          "B/elem");
    m.set("net.retries", t.retries, "count");
    m.set("net.fallbacks", t.fallbacks, "count");
    m.set("obs.op_ms", t.op_ms / ops, "ms");
    const double overhead = geomean_of_quantiles(traced, 0.5) /
                            geomean_of_quantiles(untraced, 0.5);
    m.set("obs.trace_overhead_pct", (overhead - 1.0) * 100.0, "%");
    m.set("obs.layer_coverage", t.op_ms > 0 ? t.attributed / t.op_ms : 0,
          "ratio");
    m.set("obs.unattributed_ms", (t.op_ms - t.attributed) / ops, "ms");
    size_t baseline_ops = 0;
    for (const auto& u : untraced) baseline_ops += u.size();
    r.notes.push_back("traced ops: " +
                      std::to_string(static_cast<size_t>(t.ops)) +
                      ", untraced baseline ops: " +
                      std::to_string(baseline_ops) +
                      ", calibration samples: " +
                      std::to_string(t.calibration.size()));
  }

  void finish_notes(WorkloadResult& r) {
    for (const auto& p : programs_) {
      r.notes.push_back("program " + p.label + ": op p25/p50/p75/p95 " +
                        std::to_string(quantile(p.op_ms, 0.25)) + "/" +
                        std::to_string(median(p.op_ms)) + "/" +
                        std::to_string(quantile(p.op_ms, 0.75)) + "/" +
                        std::to_string(quantile(p.op_ms, 0.95)) + " ms over " +
                        std::to_string(p.op_ms.size()) + ", substitutions " +
                        (p.first_pick.empty() ? "(none)" : p.first_pick));
    }
    r.notes.push_back("decision changes: " +
                      std::to_string(decision_changes_));
    for (auto& n : notes_) r.notes.push_back(std::move(n));
    notes_.clear();
  }

  const Options& opt_;
  std::vector<RunProgram> programs_;
  size_t workers_;
  bool remote_;
  /// Remote: the CPU of the op in flight, a slot of rotor_.
  CpuRotor rotor_;
  size_t slot_ = 0;
  fs::path root_;
  fs::path cache_dir_;
  std::vector<double> setup_s_;
  uint64_t decision_changes_ = 0;
  std::vector<std::string> notes_;
};

// Stream elements per op for the streaming graphs. On a 4-vCPU VM a
// CPU-only op takes about 40 ms (intpipe) to 380 ms (crc8pipe) at this size.
constexpr size_t kStreamElems = 32768;
// Map operands for the GPU suite; nbody and matmul are quadratic, so they
// run at 2k bodies and 4k (64 x 64) cells.
constexpr size_t kMapElems = 65536;
constexpr size_t kNBodyElems = 2048;
constexpr size_t kMatMulCells = 4096;
constexpr size_t kAdaptiveElems = 16384;
constexpr size_t kFpgaElems = 8192;

const workloads::Workload& suite_entry(
    const std::vector<workloads::Workload>& suite, const std::string& name) {
  for (const auto& w : suite) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("no workload " + name);
}

}  // namespace

WorkloadResult run_stream_cpu(const Options& opt) {
  std::vector<RunProgram> progs;
  for (const auto& w : workloads::pipeline_suite()) {
    progs.push_back(from_suite(w, kStreamElems, opt.seed, Placement::kCpuOnly));
  }
  progs.push_back(from_generated(
      generate_pipeline("Gen8", 8, 8, opt.seed * 131 + 8), kStreamElems,
      opt.seed, Placement::kCpuOnly));
  size_t workers = static_cast<size_t>(std::min(4, usable_cpus()));
  RunWorkload w(opt, std::move(progs), workers, false);
  w.setup();
  return opt.trace ? w.measure_traced(true) : w.measure();
}

WorkloadResult run_offload(const Options& opt) {
  std::vector<RunProgram> progs;
  for (const auto& w : workloads::gpu_suite()) {
    size_t n = w.name == "nbody"    ? kNBodyElems
               : w.name == "matmul" ? kMatMulCells
                                    : kMapElems;
    RunProgram p = from_suite(w, n, opt.seed, Placement::kAuto);
    p.kind = w.name == "sumreduce" ? Kind::kReduce : Kind::kMap;
    for (size_t k = 0; k < p.inputs[0].size(); ++k) {
      p.kernel_arg_order.push_back(static_cast<int>(k));
    }
    // MatMul.run(a, b, idx, n) maps cell(a, b, n, idx).
    if (w.name == "matmul") p.kernel_arg_order = {0, 1, 3, 2};
    progs.push_back(std::move(p));
  }
  for (const auto& w : workloads::pipeline_suite()) {
    RunProgram p = from_suite(w, kAdaptiveElems, opt.seed, Placement::kAdaptive);
    p.label += "@adaptive";
    progs.push_back(std::move(p));
  }
  for (const char* name : {"intpipe", "bitpipe"}) {
    RunProgram p = from_suite(suite_entry(workloads::pipeline_suite(), name),
                              kFpgaElems, opt.seed, Placement::kFpgaOnly);
    p.label += "@fpga";
    progs.push_back(std::move(p));
  }
  // One executor worker, for the reason given at compile_options(): the
  // adaptive pipelines ran 1.6x slower in some runs than in others on four
  // workers. The executor does little in this workload.
  RunWorkload w(opt, std::move(progs), 1, false);
  w.setup();
  return opt.trace ? w.measure_traced(false) : w.measure();
}

WorkloadResult run_remote(const Options& opt) {
  std::vector<RunProgram> progs;
  for (const char* name : {"intpipe", "crc8pipe"}) {
    progs.push_back(from_suite(suite_entry(workloads::pipeline_suite(), name),
                               kStreamElems, opt.seed, Placement::kGpuOnly));
  }
  // An op is a chain of ~33 round trips, each handing off between the
  // client's executor worker, its poll-loop thread and the server's
  // connection thread, so its time follows how fast a woken thread gets a
  // CPU. Across CPUs that is a wake-up of another vCPU, which on a shared
  // VM took as long as the host pleased: op_p50 spread 27% over ten runs
  // while the single-threaded warm compiles spread 3%. On one CPU a
  // hand-off is a context switch. So each op runs with one executor worker
  // on one CPU, next to a server whose threads run on the same CPU (see
  // RunWorkload::op). Rotating that CPU from op to op samples every CPU:
  // one vCPU's speed alone swung by 60% between runs.
  const size_t workers = 1;
  RunWorkload w(opt, std::move(progs), workers, true);
  w.setup();
  return opt.trace ? w.measure_traced(false) : w.measure();
}

}  // namespace perfbench
