#pragma once

// Correctness gate of the benchmark: a 64-bit FNV-1a digest over the
// simulated outputs of each trial, compared with goldens committed beside
// the benchmark (softbench/goldens/<workload>.txt). Doubles are hashed by
// bit pattern, so a digest matches only when the simulated statistics are
// bit-identical; host timings never enter a digest.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/runner.h"
#include "exp/experiment.h"

namespace softbench {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Trial seed, response-time samples, throughput, CPU/pool/server stats,
/// diagnosis verdict, governor actions and tail cohorts of one trial.
std::uint64_t digest_of(const softres::exp::RunResult& r);
/// What core::AllocationAlgorithm sees of one trial (RunnerAdapter's view).
std::uint64_t digest_of(const softres::core::Observation& o);
/// The whole Table I output of one AllocationAlgorithm::run.
std::uint64_t digest_of(const softres::core::AllocationReport& rep);

std::string hex(std::uint64_t v);

/// One checked output: a stable label naming the trial and its digest.
struct Record {
  std::string label;
  std::uint64_t digest = 0;
};

/// Compiler and build type of this binary, stored next to the goldens.
std::string toolchain();

/// Golden digests of one workload at the default seed.
struct Goldens {
  std::string toolchain;
  std::map<std::string, std::uint64_t> by_label;

  /// False when the file is missing or malformed.
  bool load(const std::string& path);
  /// Writes `records` (recorded at `seed` by this binary's toolchain).
  static bool save(const std::string& path, const std::string& workload,
                   std::uint64_t seed, const std::vector<Record>& records);
};

}  // namespace softbench
