#include "genprog.h"

#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int kForms = 4;

// Loop bodies, in Lime. `acc` is the running value, `i` the trip index.
// Only operators every backend implements: + * ^ & <<. Each body reads
// `acc` once: FPGA synthesis unrolls the loop into an expression tree, and
// a body that read it twice would double the tree every trip.
std::string body(const GenStage& s) {
  std::string a = std::to_string(s.a), b = std::to_string(s.b);
  switch (s.form) {
    case 0: return "acc = acc * " + a + " + i + " + b + ";";
    case 1: return "acc = (acc ^ (i * " + a + ")) + " + b + ";";
    case 2: return "acc = ((acc ^ " + a + ") << 1) + i;";
    default: return "acc = (acc & " + b + ") * " + a + " + (i ^ 5);";
  }
}

// The same bodies in unsigned arithmetic, which wraps like Lime's int.
uint32_t step(const GenStage& s, uint32_t acc, uint32_t i) {
  uint32_t a = static_cast<uint32_t>(s.a), b = static_cast<uint32_t>(s.b);
  switch (s.form) {
    case 0: return acc * a + i + b;
    case 1: return (acc ^ (i * a)) + b;
    case 2: return ((acc ^ a) << 1) + i;
    default: return (acc & b) * a + (i ^ 5u);
  }
}

}  // namespace

std::vector<int32_t> GenPipeline::reference(
    const std::vector<int32_t>& in) const {
  std::vector<int32_t> out(in.size());
  for (size_t k = 0; k < in.size(); ++k) {
    uint32_t v = static_cast<uint32_t>(in[k]);
    for (const GenStage& s : stages) {
      uint32_t acc = v;
      for (int i = 0; i < unroll; ++i) {
        acc = step(s, acc, static_cast<uint32_t>(i));
      }
      v = acc & static_cast<uint32_t>(s.mask);
    }
    out[k] = static_cast<int32_t>(v);
  }
  return out;
}

GenPipeline generate_pipeline(const std::string& class_name, int stages,
                              int unroll, uint64_t seed) {
  lm::SplitMix64 rng(seed);
  GenPipeline p;
  p.class_name = class_name;
  p.entry = class_name + ".run";
  p.unroll = unroll;
  static const int32_t kMasks[] = {4095, 16383, 65535, 1048575};
  // Forms rotate from a seeded offset, so a program whose stage count is a
  // multiple of kForms holds every form equally often whatever the seed.
  const int offset = static_cast<int>(rng.next_range(0, kForms - 1));
  std::string src = "class " + class_name + " {\n";
  for (int i = 0; i < stages; ++i) {
    GenStage s;
    s.form = (i + offset) % kForms;
    s.a = static_cast<int32_t>(rng.next_range(2, 9));
    s.b = static_cast<int32_t>(rng.next_range(1, 4095));
    s.mask = kMasks[rng.next_range(0, 3)];
    p.stages.push_back(s);
    std::string si = std::to_string(i);
    src += "  local static int f" + si + "(int x) {\n    int acc = x;\n" +
           "    for (int i = 0; i < " + std::to_string(unroll) +
           "; i += 1) {\n      " + body(s) + "\n    }\n    return acc & " +
           std::to_string(s.mask) + ";\n  }\n";
  }
  src +=
      "  static int[[]] run(int[[]] input) {\n"
      "    int[] result = new int[input.length];\n"
      "    var g = input.source(1)";
  for (int i = 0; i < stages; ++i) {
    src += "\n      => ([ task f" + std::to_string(i) + " ])";
  }
  src +=
      "\n      => result.<int>sink();\n"
      "    g.finish();\n"
      "    return new int[[]](result);\n"
      "  }\n}\n";
  p.source = std::move(src);
  return p;
}

}  // namespace perfbench
