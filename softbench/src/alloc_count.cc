#include "alloc_count.h"

#include <cstdlib>
#include <new>

#include "support/prof.h"

namespace softbench {

#if defined(SOFTBENCH_SPANS)

namespace {
thread_local std::uint64_t t_allocs[softres::prof::kPhases] = {};
}  // namespace

AllocCounts thread_allocs() {
  using softres::prof::Phase;
  AllocCounts c;
  c.setup = t_allocs[static_cast<std::size_t>(Phase::kSetup)];
  c.steady = t_allocs[static_cast<std::size_t>(Phase::kRampUp)] +
             t_allocs[static_cast<std::size_t>(Phase::kMeasure)] +
             t_allocs[static_cast<std::size_t>(Phase::kRampDown)];
  return c;
}

bool allocs_counted() { return true; }

}  // namespace softbench

// noinline keeps GCC from inlining the hooks into static initializers and
// warning that the (matched) malloc/free pair mismatches operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++softbench::t_allocs[static_cast<std::size_t>(softres::prof::t_phase)];
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++softbench::t_allocs[static_cast<std::size_t>(softres::prof::t_phase)];
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#else

AllocCounts thread_allocs() { return {}; }
bool allocs_counted() { return false; }

}  // namespace softbench

#endif
