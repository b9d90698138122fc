#include "exp/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace softres::exp {
namespace {

TEST(ParallelExecutorTest, ResultsComeBackInInputOrder) {
  ParallelExecutor pool(4);
  // Early tasks sleep longest so completion order inverts input order.
  const auto out = pool.run_indexed(8, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
    return i * 10;
  });
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
}

TEST(ParallelExecutorTest, RunAllPreservesOrderOfHeterogeneousTasks) {
  ParallelExecutor pool(3);
  std::vector<std::function<std::string()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((6 - i) * 2));
      return "task" + std::to_string(i);
    });
  }
  const auto out = pool.run_all(std::move(tasks));
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], "task" + std::to_string(i));
}

TEST(ParallelExecutorTest, FirstInputOrderedExceptionPropagates) {
  ParallelExecutor pool(4);
  std::atomic<int> completed{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &completed]() -> int {
      if (i == 2) throw std::runtime_error("trial 2 failed");
      if (i == 5) throw std::logic_error("trial 5 failed");
      ++completed;
      return i;
    });
  }
  try {
    pool.run_all(std::move(tasks));
    FAIL() << "expected run_all to rethrow";
  } catch (const std::runtime_error& e) {
    // Input order: the runtime_error from task 2 wins over task 5's.
    EXPECT_STREQ(e.what(), "trial 2 failed");
  }
  // Every non-throwing job ran to completion before the rethrow — no work
  // is left detached referencing caller state.
  EXPECT_EQ(completed.load(), 6);
}

// A permuted dispatch order changes when jobs start, never where their
// results land: output stays in index order at every pool size, and the
// serial pool runs the jobs in exactly the dispatch order.
TEST(ParallelExecutorTest, RunDispatchedKeepsResultsInInputOrder) {
  const std::vector<std::size_t> order = {5, 2, 7, 0, 3, 1, 6, 4};
  for (std::size_t jobs : {1u, 4u}) {
    ParallelExecutor pool(jobs);
    std::mutex mu;
    std::vector<std::size_t> started;
    const auto out = pool.run_dispatched(order, [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        started.push_back(i);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(i % 3));
      return i * 10;
    });
    ASSERT_EQ(out.size(), order.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * 10) << "jobs " << jobs;
    }
    std::sort(started.begin(), started.end());
    for (std::size_t i = 0; i < started.size(); ++i) EXPECT_EQ(started[i], i);
    if (jobs == 1) {
      // Inline on the caller: start order is the dispatch order.
      std::vector<std::size_t> inline_started;
      pool.run_dispatched(order, [&](std::size_t i) {
        inline_started.push_back(i);
        return i;
      });
      EXPECT_EQ(inline_started, order);
    }
  }
}

// Two jobs throw, and the one dispatched later has the lower input index:
// that one's exception is rethrown, as run_indexed would, after every job
// has finished.
TEST(ParallelExecutorTest, RunDispatchedRethrowsLowestInputIndex) {
  const std::vector<std::size_t> order = {6, 4, 5, 0, 1, 2, 3, 7};
  for (std::size_t jobs : {1u, 4u}) {
    ParallelExecutor pool(jobs);
    std::atomic<int> completed{0};
    try {
      pool.run_dispatched(order, [&completed](std::size_t i) -> int {
        if (i == 6) throw std::logic_error("trial 6 failed");
        if (i == 2) throw std::runtime_error("trial 2 failed");
        ++completed;
        return static_cast<int>(i);
      });
      FAIL() << "expected run_dispatched to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 2 failed") << "jobs " << jobs;
    } catch (const std::logic_error& e) {
      FAIL() << "jobs " << jobs << ": rethrew the first-dispatched "
             << e.what();
    }
    EXPECT_EQ(completed.load(), 6) << "jobs " << jobs;
  }
}

TEST(ParallelExecutorTest, RunDispatchedRejectsNonPermutation) {
  ParallelExecutor pool(2);
  std::atomic<int> ran{0};
  const auto fn = [&ran](std::size_t i) {
    ++ran;
    return i;
  };
  EXPECT_THROW(pool.run_dispatched({0, 1, 1}, fn), std::invalid_argument);
  EXPECT_THROW(pool.run_dispatched({0, 3, 1}, fn), std::invalid_argument);
  EXPECT_EQ(ran.load(), 0);  // rejected before anything was queued
  EXPECT_TRUE(pool.run_dispatched({}, fn).empty());
}

TEST(ParallelExecutorTest, SingleJobRunsInlineOnCaller) {
  ParallelExecutor pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.run_indexed(
      4, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelExecutorTest, MultiJobRunsOffCaller) {
  ParallelExecutor pool(2);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.run_indexed(
      4, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_NE(id, caller);
}

TEST(ParallelExecutorTest, OversubscriptionCompletesEveryTask) {
  // Far more workers than cores and far more tasks than workers: everything
  // still completes exactly once, in order.
  ParallelExecutor pool(32);
  std::atomic<int> ran{0};
  const auto out = pool.run_indexed(200, [&ran](std::size_t i) {
    ++ran;
    return i;
  });
  EXPECT_EQ(ran.load(), 200);
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(ParallelExecutorTest, SubmitReturnsUsableFuture) {
  ParallelExecutor pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ParallelExecutorTest, DefaultJobsHonoursEnvironment) {
  ::setenv("SOFTRES_JOBS", "3", 1);
  EXPECT_EQ(ParallelExecutor::default_jobs(), 3u);
  EXPECT_EQ(ParallelExecutor(0).jobs(), 3u);

  ::unsetenv("SOFTRES_JOBS");
  EXPECT_GE(ParallelExecutor::default_jobs(), 1u);
}

// default_jobs() with SOFTRES_JOBS=`value`; returns the exception message.
std::string default_jobs_error(const char* value) {
  ::setenv("SOFTRES_JOBS", value, 1);
  std::string what;
  try {
    ParallelExecutor::default_jobs();
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  ::unsetenv("SOFTRES_JOBS");
  return what;
}

TEST(ParallelExecutorTest, DefaultJobsRejectsNonNumericEnvironment) {
  for (const char* bad : {"abc", "not-a-number", "", "4x", "2.5"}) {
    EXPECT_NE(default_jobs_error(bad).find("SOFTRES_JOBS"), std::string::npos)
        << bad;
  }
}

TEST(ParallelExecutorTest, DefaultJobsRejectsNonPositiveEnvironment) {
  for (const char* bad : {"0", "-1", "-4"}) {
    EXPECT_NE(default_jobs_error(bad).find("SOFTRES_JOBS"), std::string::npos)
        << bad;
  }
  ::setenv("SOFTRES_JOBS", "0", 1);
  EXPECT_THROW(ParallelExecutor{0}, std::invalid_argument);
  ::unsetenv("SOFTRES_JOBS");
}

TEST(ParallelExecutorTest, ExplicitJobsBeatsEnvironment) {
  ::setenv("SOFTRES_JOBS", "7", 1);
  ParallelExecutor pool(2);
  EXPECT_EQ(pool.jobs(), 2u);
  ::unsetenv("SOFTRES_JOBS");
}

TEST(ParallelExecutorTest, ManyTasksSpreadAcrossWorkers) {
  ParallelExecutor pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.run_indexed(64, [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
    return i;
  });
  // With 64 sleeping tasks on a 4-worker pool at least two workers must
  // have picked up work.
  EXPECT_GE(seen.size(), 2u);
}

}  // namespace
}  // namespace softres::exp
