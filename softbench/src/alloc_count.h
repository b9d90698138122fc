#pragma once

// Allocation counting for the span run. softbench_spans replaces the global
// operator new with one that bumps a per-thread counter keyed on the trial
// phase marker exp::Experiment::run and exp::Testbed advance
// (softres::prof::t_phase); the uninstrumented driver keeps the default
// allocator and reads zeros. Counters are per thread, so a trial reads exact
// deltas on its own worker while other trials run beside it.

#include <cstdint>

namespace softbench {

struct AllocCounts {
  std::uint64_t setup = 0;   // topology build, registry construction
  std::uint64_t steady = 0;  // ramp-up to the end of the trial's condense
};

/// Allocations made so far on the calling thread, split by trial phase.
AllocCounts thread_allocs();

/// True in the binary whose operator new counts.
bool allocs_counted();

}  // namespace softbench
