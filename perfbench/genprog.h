// Seeded generator of relocated Lime pipelines and their plain C++
// reference. Each stage is a pure int filter whose body is a counted loop
// (the FPGA backend fully unrolls it into a combinational datapath; the
// GPU backend keeps it as a loop in kernel IR; the bytecode interpreter
// iterates it). The seed picks the constants and rotates the order of the
// stage forms; the caller fixes the shape (stage count, trip count), so two
// seeds give programs of the same size and cost class.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct GenStage {
  int form = 0;  // which loop body (see genprog.cpp)
  int32_t a = 0;
  int32_t b = 0;
  int32_t mask = 0;
};

struct GenPipeline {
  std::string class_name;
  std::string source;
  std::string entry;  // "<class>.run"
  int unroll = 0;
  std::vector<GenStage> stages;

  /// What the pipeline computes on `in`, element by element (int32
  /// wrap-around arithmetic, as every backend implements it).
  std::vector<int32_t> reference(const std::vector<int32_t>& in) const;
};

GenPipeline generate_pipeline(const std::string& class_name, int stages,
                              int unroll, uint64_t seed);

}  // namespace perfbench
