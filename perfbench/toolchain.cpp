// Workload `toolchain`: one op is one runtime::compile() with the cache
// off, over a seeded set of generated relocated pipelines (8–48 stages,
// each with a loop unrolled 16–128 times) plus the eleven gpu_suite() and
// pipeline_suite() sources. Each op's program is then compiled warm from a
// cache directory that set-up filled; the warm compile's artifact texts
// must be byte-identical to the cold compile's.
//
// The traced run times each compile phase by calling the phase's public
// function directly (a replica of compile()'s sequence, no cache), so the
// per-layer rows add up to the op: obs.layer_coverage compares their sum
// with the real compile() timed in the same run.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_set>

#include "analysis/analysis.h"
#include "analysis/kernel_ranges.h"
#include "bytecode/compiler.h"
#include "cache/artifact_cache.h"
#include "cache/serialize.h"
#include "common.h"
#include "fpga/synth.h"
#include "genprog.h"
#include "gpu/kernel_compiler.h"
#include "ir/task_graph.h"
#include "lime/frontend.h"
#include "runtime/liquid_compiler.h"
#include "util/byte_buffer.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace lm;
using runtime::ArtifactManifest;
using runtime::DeviceKind;

struct Program {
  std::string label;
  std::string source;
};

// Fixed size ladder: every seed compiles the same shapes (so the op
// distribution is comparable across seeds) with seeded stage bodies. The
// 48 x 128 program is the E12 deep-unrolled shape, the slowest compile,
// in two seeded variants.
constexpr std::pair<int, int> kLadder[] = {
    {8, 128}, {16, 16}, {24, 64}, {32, 32}, {48, 128}, {48, 128},
};

constexpr size_t kSetupReps = 7;  // its cache fill writes ~600 files: noisy

std::vector<Program> make_programs(uint64_t seed) {
  std::vector<Program> out;
  int k = 0;
  for (auto [stages, unroll] : kLadder) {
    std::string cls = "Gen" + std::to_string(k++);
    GenPipeline g = generate_pipeline(cls, stages, unroll, seed * 131 + k);
    out.push_back({cls + "-" + std::to_string(stages) + "x" +
                       std::to_string(unroll),
                   g.source});
  }
  for (const auto& w : workloads::gpu_suite()) {
    out.push_back({w.name, w.lime_source});
  }
  for (const auto& w : workloads::pipeline_suite()) {
    out.push_back({w.name, w.lime_source});
  }
  return out;
}

/// task@device → artifact text, the byte-identity witness of a compile.
std::map<std::string, std::string> artifact_texts(
    const runtime::CompiledProgram& cp) {
  std::map<std::string, std::string> out;
  for (const auto* m : cp.store.manifests()) {
    out[m->task_id + "@" + runtime::to_string(m->device)] = m->artifact_text;
  }
  return out;
}

/// Per-layer wall time of one replica compile, ms.
struct PhaseTimes {
  double frontend = 0, bytecode = 0, extract = 0, analyze = 0;
  double codegen = 0, ranges = 0, synth = 0, build = 0;
  double store = 0;  // cache encode + store; not part of compile()
  size_t artifacts = 0, gpu_kernels = 0, fpga_modules = 0;
  double verilog_bytes = 0;

  double compile_sum() const {
    return frontend + bytecode + extract + analyze + codegen + ranges +
           synth + build;
  }
  void add(const PhaseTimes& o) {
    frontend += o.frontend; bytecode += o.bytecode; extract += o.extract;
    analyze += o.analyze; codegen += o.codegen; ranges += o.ranges;
    synth += o.synth; build += o.build; store += o.store;
  }
};

const lime::MethodDecl* find_method(const lime::Program& p,
                                    const std::string& qualified) {
  for (const auto& cls : p.classes) {
    for (const auto& m : cls->methods) {
      if (m->qualified_name() == qualified) return m.get();
    }
  }
  return nullptr;
}

ArtifactManifest manifest_of(const lime::MethodDecl& m, DeviceKind d,
                             std::string text) {
  ArtifactManifest mf;
  mf.task_id = m.qualified_name();
  mf.device = d;
  for (const auto& p : m.params) mf.param_types.push_back(p.type);
  mf.return_type = m.return_type;
  mf.arity = static_cast<int>(m.params.size());
  mf.artifact_text = std::move(text);
  return mf;
}

ArtifactManifest segment_manifest(
    const std::vector<const lime::MethodDecl*>& chain, const std::string& id,
    DeviceKind d, std::string text) {
  ArtifactManifest mf;
  mf.task_id = id;
  mf.device = d;
  for (const auto& p : chain.front()->params) {
    mf.param_types.push_back(p.type);
  }
  mf.return_type = chain.back()->return_type;
  mf.arity = static_cast<int>(chain.front()->params.size());
  mf.artifact_text = std::move(text);
  return mf;
}

/// The compile() sequence (runtime/liquid_compiler.cpp, cache off),
/// calling each layer's public entry point under its own timer. Also
/// encodes and stores every artifact into `store_cache` under a separate
/// timer (cache.store_ms), outside the compile sum.
PhaseTimes replica_compile(const std::string& source,
                           cache::ArtifactCache& store_cache) {
  PhaseTimes t;
  auto timed = [](double& acc, auto&& fn) {
    auto t0 = Clock::now();
    fn();
    acc += ms_since(t0);
  };
  auto store_payload = [&](std::span<const uint8_t> canonical,
                           const char* backend, auto&& encode) {
    timed(t.store, [&] {
      uint64_t key = cache::artifact_key(canonical, backend, "");
      store_cache.store(key, backend, encode());
    });
  };

  lime::FrontendResult fr;
  timed(t.frontend, [&] { fr = lime::compile_source(source); });
  if (!fr.ok()) throw std::runtime_error("replica: frontend errors");
  const lime::Program& ast = *fr.program;
  DiagnosticEngine diags = fr.diags;

  std::unique_ptr<bc::BytecodeModule> module;
  timed(t.bytecode, [&] { module = bc::compile_program(ast, diags); });
  store_payload(
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(source.data()), source.size()),
      cache::kBackendBytecode,
      [&] { return cache::encode_bytecode_module(*module); });

  ir::ProgramTaskGraphs graphs;
  timed(t.extract, [&] { graphs = ir::extract_task_graphs(ast, diags); });

  analysis::AnalysisResult ar;
  timed(t.analyze, [&] {
    ar = analysis::analyze_program(ast, graphs, analysis::AnalysisOptions{});
    diags.merge(ar.diags);
  });
  if (diags.has_errors()) throw std::runtime_error("replica: analysis errors");

  runtime::ArtifactStore store;
  std::shared_ptr<gpu::GpuDevice> device;
  std::unordered_set<std::string> done;
  std::vector<const lime::MethodDecl*> map_methods;
  timed(t.build, [&] {
    device = std::make_shared<gpu::GpuDevice>(gpu::GpuDeviceConfig{});
    auto add_cpu = [&](const lime::MethodDecl* m) {
      std::string id = m->qualified_name();
      if (!done.insert("cpu:" + id).second) return;
      store.add(std::make_unique<runtime::BytecodeArtifact>(
          manifest_of(*m, DeviceKind::kCpu, "bytecode:\n"), *module,
          module->index_of(id)));
    };
    for (const auto& g : graphs.graphs) {
      for (const auto& n : g.nodes) {
        if (n.kind == ir::TaskNodeInfo::Kind::kFilter) add_cpu(n.method);
      }
    }
    // Map/reduce methods, found through the bytecode's kMap/kReduce ops.
    for (const auto& cm : module->methods) {
      for (const auto& in : cm.code) {
        if (in.op != bc::Op::kMap && in.op != bc::Op::kReduce) continue;
        const auto* m = find_method(
            ast, module->methods[static_cast<size_t>(in.a)].qualified_name);
        if (m && std::find(map_methods.begin(), map_methods.end(), m) ==
                     map_methods.end()) {
          map_methods.push_back(m);
        }
      }
    }
    for (const auto* m : map_methods) add_cpu(m);
  });

  auto add_gpu = [&](const std::string& id, const auto& roots_for_key,
                     auto&& compile_fn, auto&& manifest_fn) {
    if (!done.insert("gpu:" + id).second) return;
    gpu::KernelCompileResult r;
    timed(t.codegen, [&] { r = compile_fn(); });
    if (!r.ok()) return;
    timed(t.ranges, [&] { analysis::annotate_kernel_ranges(*r.program); });
    ByteWriter cb;
    if (cache::canonical_chain_bytes(*module, roots_for_key, cb)) {
      store_payload(cb.bytes(), cache::kBackendGpu,
                    [&] { return cache::encode_kernel_program(*r.program); });
    }
    timed(t.build, [&] {
      ArtifactManifest mf = manifest_fn(r.program->opencl_source);
      store.add(std::make_unique<runtime::GpuKernelArtifact>(
          std::move(mf), std::move(r.program), device));
    });
    ++t.gpu_kernels;
  };
  auto add_fpga = [&](const std::string& id, const auto& roots_for_key,
                      auto&& synth_fn, auto&& manifest_fn) {
    if (!done.insert("fpga:" + id).second) return;
    fpga::FpgaCompileResult r;
    timed(t.synth, [&] { r = synth_fn(); });
    if (!r.ok()) return;
    ByteWriter cb;
    if (cache::canonical_chain_bytes(*module, roots_for_key, cb)) {
      store_payload(cb.bytes(), cache::kBackendFpga,
                    [&] { return cache::encode_fpga_result(r); });
    }
    t.verilog_bytes += static_cast<double>(r.verilog.size());
    timed(t.build, [&] {
      ArtifactManifest mf = manifest_fn(r.verilog);
      store.add(std::make_unique<runtime::FpgaModuleArtifact>(std::move(mf),
                                                              std::move(r)));
    });
    ++t.fpga_modules;
  };
  auto demoted = [&](const std::string& id) { return ar.demoted.count(id) > 0; };

  // GPU: per-filter and fused-segment kernels, then map/reduce kernels.
  for (const auto& g : graphs.graphs) {
    for (const auto& [first, last] : g.relocated_segments()) {
      std::vector<const lime::MethodDecl*> chain;
      std::vector<std::string> ids;
      for (int i = first; i <= last; ++i) {
        const auto* m = g.nodes[static_cast<size_t>(i)].method;
        chain.push_back(m);
        ids.push_back(g.nodes[static_cast<size_t>(i)].task_id);
        std::string id = m->qualified_name();
        if (demoted(id)) continue;
        add_gpu(id, std::vector<std::string>{id},
                [&] { return gpu::compile_kernel(*m); },
                [&](const std::string& text) {
                  return manifest_of(*m, DeviceKind::kGpu, text);
                });
      }
      bool seg_demoted = std::any_of(ids.begin(), ids.end(), demoted);
      if (chain.size() > 1 && !seg_demoted) {
        std::string seg = runtime::ArtifactStore::segment_id(ids);
        std::vector<std::string> roots;
        for (const auto* cm : chain) roots.push_back(cm->qualified_name());
        add_gpu(seg, roots, [&] { return gpu::compile_segment_kernel(chain); },
                [&](const std::string& text) {
                  return segment_manifest(chain, seg, DeviceKind::kGpu, text);
                });
      }
    }
  }
  for (const auto* m : map_methods) {
    std::string id = m->qualified_name();
    if (demoted(id)) continue;
    add_gpu(id, std::vector<std::string>{id},
            [&] { return gpu::compile_kernel(*m); },
            [&](const std::string& text) {
              return manifest_of(*m, DeviceKind::kGpu, text);
            });
  }

  // FPGA: per-filter modules, then fused-segment modules.
  fpga::FpgaSynthOptions so;
  for (const auto* m : graphs.relocated_filter_methods()) {
    std::string id = m->qualified_name();
    if (demoted(id)) continue;
    add_fpga(id, std::vector<std::string>{id},
             [&] { return fpga::synthesize_filter(*m, so); },
             [&](const std::string& text) {
               return manifest_of(*m, DeviceKind::kFpga, text);
             });
  }
  for (const auto& g : graphs.graphs) {
    for (const auto& [first, last] : g.relocated_segments()) {
      if (last - first + 1 < 2) continue;
      std::vector<const lime::MethodDecl*> chain;
      std::vector<std::string> ids;
      for (int i = first; i <= last; ++i) {
        chain.push_back(g.nodes[static_cast<size_t>(i)].method);
        ids.push_back(g.nodes[static_cast<size_t>(i)].task_id);
      }
      if (std::any_of(ids.begin(), ids.end(), demoted)) continue;
      std::string seg = runtime::ArtifactStore::segment_id(ids);
      std::vector<std::string> roots;
      for (const auto* cm : chain) roots.push_back(cm->qualified_name());
      add_fpga(seg, roots, [&] { return fpga::synthesize_segment(chain, so); },
               [&](const std::string& text) {
                 return segment_manifest(chain, seg, DeviceKind::kFpga, text);
               });
    }
  }
  t.artifacts = store.size();
  return t;
}

/// Times ArtifactCache::load + decode of every artifact a keyed compile
/// addresses (the warm path's cache layer), ms.
double time_cache_loads(const runtime::CompiledProgram& keyed,
                        const fs::path& dir) {
  cache::CacheConfig cfg;
  cfg.mode = cache::CacheMode::kReadOnly;
  cfg.dir = dir.string();
  cache::ArtifactCache ac(cfg);
  auto t0 = Clock::now();
  for (const auto& [label, key] : keyed.artifact_keys) {
    std::string backend = label.substr(0, label.find(':'));
    auto payload = ac.load(key, backend);
    if (!payload) throw std::runtime_error("warm load missed " + label);
    if (backend == cache::kBackendBytecode) {
      cache::decode_bytecode_module(*payload);
    } else if (backend == cache::kBackendGpu) {
      cache::decode_kernel_program(*payload);
    } else {
      cache::decode_fpga_result(*payload);
    }
  }
  return ms_since(t0);
}

}  // namespace

WorkloadResult run_toolchain(const Options& opt) {
  WorkloadResult res;
  const std::vector<Program> programs = make_programs(opt.seed);
  const fs::path root = fs::path(opt.tmp_dir) / "toolchain";

  // Set-up: fill a fresh cache directory with every program, at least
  // kSetupReps times over; the last directory serves the warm compiles.
  std::vector<double> setup_s;
  fs::path warm_dir;
  CpuRotor rotor;  // compile() is single-threaded: see CpuRotor
  for (int rep = 0; more_setup_reps(setup_s, kSetupReps); ++rep) {
    fs::path dir = root / ("cache-" + std::to_string(rep));
    rotor.next();
    fs::remove_all(dir);
    auto t0 = Clock::now();
    for (const Program& p : programs) {
      auto cp = runtime::compile(p.source, rw_cache(dir));
      if (!cp->ok()) {
        throw std::runtime_error("set-up compile failed: " + p.label);
      }
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    if (!warm_dir.empty()) fs::remove_all(warm_dir);
    warm_dir = dir;
  }

  OpLog ops(programs.size());
  std::vector<std::vector<double>> warm_ms(programs.size());
  size_t warm_samples = 0;
  Cycle cycle(programs.size(), opt.seed ^ 0x7e57);

  // One op: cold compile (timed), then the warm compile of the same
  // program (timed apart) and the byte-identity check.
  auto one_op = [&](size_t idx,
                    std::unique_ptr<runtime::CompiledProgram>* warm_out,
                    size_t* cold_artifacts) {
    const Program& p = programs[idx];
    rotor.next();
    auto t0 = Clock::now();
    auto cold = runtime::compile(p.source);
    double cold_ms = ms_since(t0);
    auto t1 = Clock::now();
    auto warm = runtime::compile(p.source, rw_cache(warm_dir));
    double w_ms = ms_since(t1);
    if (!cold->ok() || !warm->ok()) {
      ops.fail(p.label + ": compile not ok");
      return -1.0;
    }
    if (artifact_texts(*cold) != artifact_texts(*warm)) {
      ops.fail(p.label + ": warm artifacts differ from cold");
      return -1.0;
    }
    ops.ok(idx, cold_ms, static_cast<double>(p.source.size()));
    warm_ms[idx].push_back(w_ms);
    ++warm_samples;
    if (warm_out) *warm_out = std::move(warm);
    if (cold_artifacts) *cold_artifacts = cold->store.size();
    return cold_ms;
  };

  if (!opt.trace) {
    run_cycles(cycle, opt.seconds,
               [&](size_t i) { one_op(i, nullptr, nullptr); });
    add_op_metrics(ops, res);
    res.metrics.set("warm_compile_p50_ms",
                    geomean_of_quantiles(warm_ms, 0.5), "ms");
    res.metrics.set("setup_s", median(setup_s), "s");
    res.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    res.notes.push_back("warm compile samples: " +
                        std::to_string(warm_samples));
    fs::remove_all(root);
    return res;
  }

  // Traced run. Phase A: whole cycles untraced; phase B: the same ops with
  // a recorder installed (the pair gives obs.trace_overhead_pct). One
  // recorder kept across all ops fills with the warm compiles' cache
  // events; the small cold compiles then ran about twice as slow, which
  // no single `lmc --trace` run would see.
  add_default_layer_rows(res.metrics);
  const double budget = opt.seconds;
  std::vector<std::vector<double>> untraced(programs.size());
  std::vector<std::vector<double>> traced(programs.size());
  size_t untraced_ops = 0, traced_ops = 0;
  run_cycles(cycle, budget * 0.25, [&](size_t i) {
    double ms = one_op(i, nullptr, nullptr);
    if (ms < 0) return;
    untraced[i].push_back(ms);
    ++untraced_ops;
  });
  run_cycles(cycle, budget * 0.25, [&](size_t i) {
    ScopedRecorder recorder;  // fresh per op, as one `lmc --trace` run has
    double ms = one_op(i, nullptr, nullptr);
    if (ms < 0) return;
    traced[i].push_back(ms);
    ++traced_ops;
  });

  // Phase C: every op also runs the phase replica and the warm path's
  // cache loads. It runs apart from phase B because that extra work
  // between ops would itself slow the next op down.
  cache::CacheConfig probe_cfg;
  probe_cfg.mode = cache::CacheMode::kReadWrite;
  probe_cfg.dir = (root / "store-probe").string();
  cache::ArtifactCache probe(probe_cfg);
  PhaseTimes total;
  double op_sum = 0, load_sum = 0, hits = 0, lookups = 0;
  size_t n = 0;
  PhaseTimes counts;  // one pass over the program set
  std::vector<bool> counted(programs.size(), false);
  run_cycles(cycle, budget * 0.5, [&](size_t idx) {
    const Program& p = programs[idx];
    std::unique_ptr<runtime::CompiledProgram> warm;
    size_t cold_artifacts = 0;
    double cold_ms = one_op(idx, &warm, &cold_artifacts);
    if (cold_ms < 0) return;
    PhaseTimes t = replica_compile(p.source, probe);
    if (t.artifacts != cold_artifacts) {
      ops.fail(p.label + ": replica built " + std::to_string(t.artifacts) +
               " artifacts, compile() " + std::to_string(cold_artifacts));
      return;
    }
    op_sum += cold_ms;
    total.add(t);
    load_sum += time_cache_loads(*warm, warm_dir);
    const auto& cm = warm->cache->metrics();
    hits += static_cast<double>(cm.value("cache.hits"));
    lookups += static_cast<double>(cm.value("cache.hits") +
                                   cm.value("cache.misses"));
    if (!counted[idx]) {
      counted[idx] = true;
      counts.artifacts += t.artifacts;
      counts.gpu_kernels += t.gpu_kernels;
      counts.fpga_modules += t.fpga_modules;
      counts.verilog_bytes += t.verilog_bytes;
    }
    ++n;
  });

  const double dn = n ? static_cast<double>(n) : 1.0;
  auto& m = res.metrics;
  m.set("lime.frontend_ms", total.frontend / dn, "ms");
  m.set("bytecode.compile_ms", total.bytecode / dn, "ms");
  m.set("ir.extract_ms", total.extract / dn, "ms");
  m.set("analysis.analyze_ms", total.analyze / dn, "ms");
  m.set("gpu.codegen_ms", total.codegen / dn, "ms");
  m.set("analysis.kernel_ranges_ms", total.ranges / dn, "ms");
  m.set("fpga.synth_ms", total.synth / dn, "ms");
  m.set("runtime.artifact_build_ms", total.build / dn, "ms");
  m.set("cache.load_ms", load_sum / dn, "ms");
  m.set("cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  m.set("cache.store_ms", total.store / dn, "ms");
  m.set("gpu.kernels", static_cast<double>(counts.gpu_kernels), "count");
  m.set("fpga.modules", static_cast<double>(counts.fpga_modules), "count");
  m.set("fpga.verilog_kb", counts.verilog_bytes / 1024.0, "KiB");
  m.set("store.artifacts", static_cast<double>(counts.artifacts), "count");
  m.set("obs.op_ms", op_sum / dn, "ms");
  m.set("obs.trace_overhead_pct",
        (geomean_of_quantiles(traced, 0.5) /
             geomean_of_quantiles(untraced, 0.5) -
         1.0) * 100.0,
        "%");
  m.set("obs.layer_coverage", op_sum > 0 ? total.compile_sum() / op_sum : 0,
        "ratio");
  m.set("obs.unattributed_ms", (op_sum - total.compile_sum()) / dn, "ms");
  res.attempted += ops.attempted;
  res.failed += ops.failed;
  res.notes.push_back("replica ops: " + std::to_string(n) +
                      ", traced ops: " + std::to_string(traced_ops) +
                      ", untraced baseline ops: " +
                      std::to_string(untraced_ops));
  fs::remove_all(root);
  return res;
}

}  // namespace perfbench
