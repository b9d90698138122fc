#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace softres::prof {

// Definitions for the declarations in support/prof.h. They live here so the
// dependency-free core header stays header-only; only code that links
// softres_obs (bench, examples, tests) renders names.
const char* subsystem_name(Subsystem sub) {
  switch (sub) {
    case Subsystem::kEventQueuePush: return "event_queue_push";
    case Subsystem::kEventQueuePop: return "event_queue_pop";
    case Subsystem::kEventQueueCancel: return "event_queue_cancel";
    case Subsystem::kDispatch: return "dispatch";
    case Subsystem::kDistSample: return "dist_sample";
    case Subsystem::kPoolService: return "pool_service";
    case Subsystem::kCpuService: return "cpu_service";
    case Subsystem::kJvmService: return "jvm_service";
    case Subsystem::kLinkService: return "link_service";
    case Subsystem::kArenaAlloc: return "arena_alloc";
    case Subsystem::kTimeline: return "timeline";
    case Subsystem::kApacheService: return "apache_service";
    case Subsystem::kTomcatService: return "tomcat_service";
    case Subsystem::kCJdbcService: return "cjdbc_service";
    case Subsystem::kMySqlService: return "mysql_service";
    case Subsystem::kCount: break;
  }
  return "unknown";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSetup: return "setup";
    case Phase::kRampUp: return "ramp_up";
    case Phase::kMeasure: return "measure";
    case Phase::kRampDown: return "ramp_down";
    case Phase::kCount: break;
  }
  return "unknown";
}

}  // namespace softres::prof

namespace softres::obs {

namespace {

/// Unpack a ledger path key (one byte per level, root lowest, value
/// subsystem+1) into root-first frames.
std::vector<prof::Subsystem> unpack_path(std::uint64_t key) {
  std::vector<prof::Subsystem> frames;
  for (std::size_t level = 0; level < prof::Ledger::kPathDepth; ++level) {
    const std::uint8_t byte =
        static_cast<std::uint8_t>(key >> (8 * level) & 0xFF);
    if (byte == 0) break;
    frames.push_back(static_cast<prof::Subsystem>(byte - 1));
  }
  return frames;
}

double measure_cycles_per_second() {
  using Clock = std::chrono::steady_clock;
  if (prof::cycle_counter() == 0 && prof::cycle_counter() == 0) return 0.0;
  const auto t0 = Clock::now();
  const std::uint64_t c0 = prof::cycle_counter();
  // ~2 ms spin: short enough to be free at startup, long enough that clock
  // granularity contributes < 0.1% error.
  while (Clock::now() - t0 < std::chrono::milliseconds(2)) {
  }
  const std::uint64_t c1 = prof::cycle_counter();
  const auto t1 = Clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  if (seconds <= 0.0 || c1 <= c0) return 0.0;
  return static_cast<double>(c1 - c0) / seconds;
}

double measure_scope_cost_cycles() {
  // Time empty scopes against a scratch ledger on this thread. The result
  // feeds only the overhead estimate, so a rough figure is fine.
  prof::Ledger scratch;
  prof::InstallGuard guard(&scratch);
  constexpr int kIters = 4096;
  const std::uint64_t c0 = prof::cycle_counter();
  for (int i = 0; i < kIters; ++i) {
    prof::ScopeTimer t(prof::Subsystem::kDispatch);
  }
  const std::uint64_t c1 = prof::cycle_counter();
  if (c1 <= c0) return 0.0;
  return static_cast<double>(c1 - c0) / kIters;
}

}  // namespace

std::uint64_t ProfileSnapshot::total_counts() const {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) total += counts[p][s];
  }
  return total;
}

std::uint64_t ProfileSnapshot::total_counts(prof::Phase phase) const {
  std::uint64_t total = 0;
  const std::size_t p = static_cast<std::size_t>(phase);
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) total += counts[p][s];
  return total;
}

std::uint64_t ProfileSnapshot::total_cycles() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) total += cycles[s];
  return total;
}

std::uint64_t ProfileSnapshot::total_scope_entries() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    total += scope_entries[s];
  }
  return total;
}

double ProfileSnapshot::overhead_fraction() const {
  const std::uint64_t total = total_cycles();
  if (total == 0 || scope_cost_cycles <= 0.0) return 0.0;
  const double overhead =
      static_cast<double>(total_scope_entries()) * scope_cost_cycles;
  const double fraction = overhead / static_cast<double>(total);
  return fraction < 0.0 ? 0.0 : fraction > 1.0 ? 1.0 : fraction;
}

std::vector<std::size_t> ProfileSnapshot::subsystems_by_cycles() const {
  std::vector<std::size_t> order(prof::kSubsystems);
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return cycles[a] > cycles[b];
                   });
  return order;
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  if (!other.enabled) return;
  enabled = true;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
      counts[p][s] += other.counts[p][s];
    }
  }
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    cycles[s] += other.cycles[s];
    scope_entries[s] += other.scope_entries[s];
  }
  path_overflow_cycles += other.path_overflow_cycles;
  for (const Path& theirs : other.paths) {
    auto it = std::lower_bound(paths.begin(), paths.end(), theirs,
                               [](const Path& a, const Path& b) {
                                 return a.frames < b.frames;
                               });
    if (it != paths.end() && it->frames == theirs.frames) {
      it->cycles += theirs.cycles;
      it->count += theirs.count;
    } else {
      paths.insert(it, theirs);
    }
  }
  if (cycles_per_second == 0.0) cycles_per_second = other.cycles_per_second;
  if (scope_cost_cycles == 0.0) scope_cost_cycles = other.scope_cost_cycles;
}

double Profiler::cycles_per_second() {
  static const double value = measure_cycles_per_second();
  return value;
}

double Profiler::scope_cost_cycles() {
  static const double value = measure_scope_cost_cycles();
  return value;
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snap;
  snap.enabled = true;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
      snap.counts[p][s] = ledger_.counts[p][s];
    }
  }
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    snap.cycles[s] = ledger_.cycles[s];
    snap.scope_entries[s] = ledger_.scope_entries[s];
  }
  snap.path_overflow_cycles = ledger_.path_overflow_cycles;
  for (const prof::Ledger::PathCell& cell : ledger_.paths) {
    if (cell.key == 0) continue;
    ProfileSnapshot::Path path;
    path.frames = unpack_path(cell.key);
    path.cycles = cell.cycles;
    path.count = cell.count;
    snap.paths.push_back(std::move(path));
  }
  std::sort(snap.paths.begin(), snap.paths.end(),
            [](const ProfileSnapshot::Path& a, const ProfileSnapshot::Path& b) {
              return a.frames < b.frames;
            });
  snap.cycles_per_second = cycles_per_second();
  snap.scope_cost_cycles = scope_cost_cycles();
  return snap;
}

std::string render_profile_table(const ProfileSnapshot& snap) {
  if (!snap.enabled) return "";
  std::ostringstream os;
  const std::uint64_t total_cycles = snap.total_cycles();
  os << "profile: per-subsystem cost attribution\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-18s %12s %12s %12s %14s %9s %7s\n",
                "subsystem", "setup", "ramp_up", "measure", "cycles",
                "cyc/op", "share");
  os << line;
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    std::uint64_t count_total = 0;
    for (std::size_t p = 0; p < prof::kPhases; ++p) {
      count_total += snap.counts[p][s];
    }
    if (count_total == 0 && snap.cycles[s] == 0) continue;
    const auto sub = static_cast<prof::Subsystem>(s);
    const double per_op =
        snap.scope_entries[s] > 0
            ? static_cast<double>(snap.cycles[s]) /
                  static_cast<double>(snap.scope_entries[s])
            : 0.0;
    const double share =
        total_cycles > 0 ? 100.0 * static_cast<double>(snap.cycles[s]) /
                               static_cast<double>(total_cycles)
                         : 0.0;
    std::snprintf(
        line, sizeof line, "  %-18s %12llu %12llu %12llu %14llu %9.1f %6.1f%%\n",
        prof::subsystem_name(sub),
        static_cast<unsigned long long>(
            snap.counts[static_cast<std::size_t>(prof::Phase::kSetup)][s]),
        static_cast<unsigned long long>(
            snap.counts[static_cast<std::size_t>(prof::Phase::kRampUp)][s]),
        static_cast<unsigned long long>(
            snap.counts[static_cast<std::size_t>(prof::Phase::kMeasure)][s]),
        static_cast<unsigned long long>(snap.cycles[s]), per_op, share);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "  total: %llu events, %llu cycles, est. overhead %.1f%%\n",
                static_cast<unsigned long long>(snap.total_counts()),
                static_cast<unsigned long long>(total_cycles),
                100.0 * snap.overhead_fraction());
  os << line;
  return os.str();
}

std::string one_line_profile_summary(const ProfileSnapshot& snap) {
  if (!snap.enabled) return "";
  std::ostringstream os;
  const std::uint64_t total = snap.total_cycles();
  os << "profile: ";
  const std::vector<std::size_t> order = snap.subsystems_by_cycles();
  int shown = 0;
  for (std::size_t s : order) {
    if (shown == 3 || snap.cycles[s] == 0) break;
    if (shown > 0) os << ", ";
    const double share = total > 0 ? 100.0 * static_cast<double>(snap.cycles[s]) /
                                         static_cast<double>(total)
                                   : 0.0;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %.1f%%",
                  prof::subsystem_name(static_cast<prof::Subsystem>(s)), share);
    os << buf;
    ++shown;
  }
  if (shown == 0) os << "no timed cycles (count axis only)";
  char buf[64];
  std::snprintf(buf, sizeof buf, "; est. overhead %.1f%%",
                100.0 * snap.overhead_fraction());
  os << buf;
  return os.str();
}

void write_collapsed_stacks(std::ostream& os, const ProfileSnapshot& snap) {
  if (!snap.enabled) return;
  for (const ProfileSnapshot::Path& path : snap.paths) {
    if (path.cycles == 0) continue;
    for (std::size_t i = 0; i < path.frames.size(); ++i) {
      if (i > 0) os << ';';
      os << prof::subsystem_name(path.frames[i]);
    }
    os << ' ' << path.cycles << '\n';
  }
}

}  // namespace softres::obs
