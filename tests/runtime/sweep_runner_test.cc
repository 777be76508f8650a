#include "src/runtime/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace snicsim::runtime {
namespace {

TEST(SweepQueue, DefaultJobsIsAtLeastOne) { EXPECT_GE(DefaultJobs(), 1); }

int ParseWith(int (*flag)(Flags&), const char* arg) {
  const char* argv[] = {"prog", arg};
  Flags flags(2, const_cast<char**>(argv));
  return flag(flags);
}

// The shared count flags read their value in full, refuse to truncate it into an int, and
// refuse a value below 1: a typo exits 2 instead of running with a default, a prefix or a
// remapped count.
TEST(SweepFlagsDeathTest, JobsAndSimThreadsRejectBadValues) {
  EXPECT_EQ(ParseWith(JobsFlag, "--jobs=3"), 3);
  EXPECT_EXIT(ParseWith(SimThreadsFlag, "--sim-threads=0"), testing::ExitedWithCode(2),
              "--sim-threads: 0 is below 1");
  EXPECT_EXIT(ParseWith(JobsFlag, "--jobs=0"), testing::ExitedWithCode(2),
              "--jobs: 0 is below 1");
  EXPECT_EXIT(ParseWith(JobsFlag, "--jobs=-3"), testing::ExitedWithCode(2),
              "--jobs: -3 is below 1");
  EXPECT_EXIT(ParseWith(JobsFlag, "--jobs=junk"), testing::ExitedWithCode(2),
              "--jobs: 'junk' is not an integer");
  EXPECT_EXIT(ParseWith(JobsFlag, "--jobs=4294967297"),
              testing::ExitedWithCode(2), "--jobs: 4294967297 does not fit an int");
  EXPECT_EXIT(ParseWith(SimThreadsFlag, "--sim-threads=2x"),
              testing::ExitedWithCode(2), "--sim-threads: '2x' is not an integer");
}

TEST(SweepQueue, PreservesSubmissionOrder) {
  SweepQueue<int> sweep(4);
  for (int i = 0; i < 200; ++i) {
    sweep.Add([i] { return i * i; });
  }
  const std::vector<int> results = sweep.Run();
  ASSERT_EQ(results.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepQueue, EmptySweep) {
  SweepQueue<int> sweep(4);
  EXPECT_TRUE(sweep.Run().empty());
}

TEST(SweepQueue, RunsPointsConcurrently) {
  // All four points block until all four are running at once; anything less
  // than jobs-way concurrency deadlocks (and fails via gtest timeout).
  constexpr int kJobs = 4;
  SweepQueue<int> sweep(kJobs);
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  for (int i = 0; i < kJobs; ++i) {
    sweep.Add([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++running == kJobs) {
        cv.notify_all();
      } else {
        cv.wait(lock, [&] { return running == kJobs; });
      }
      return 0;
    });
  }
  sweep.Run();
  EXPECT_EQ(running, kJobs);
}

TEST(SweepQueue, BusyPointDoesNotHoldTheRest) {
  // Point 0 blocks until points 1..4 have all finished, so the other runner
  // must claim all four of them while point 0 holds its runner.
  SweepQueue<int> sweep(2);
  std::promise<void> unblock;
  std::shared_future<void> gate = unblock.get_future().share();
  std::atomic<int> others_done{0};
  sweep.Add([gate] {
    gate.wait();
    return 0;
  });
  for (int i = 0; i < 4; ++i) {
    sweep.Add([&others_done, &unblock] {
      if (others_done.fetch_add(1) + 1 == 4) {
        unblock.set_value();
      }
      return 0;
    });
  }
  sweep.Run();
  EXPECT_EQ(others_done.load(), 4);
}

TEST(SweepQueue, OnePointRunsOnTheCallingThread) {
  // min(jobs, points) runners, the caller among them: an oversized --jobs
  // starts no idle thread.
  SweepQueue<int> sweep(8);
  std::thread::id ran_on;
  sweep.Add([&ran_on] {
    ran_on = std::this_thread::get_id();
    return 0;
  });
  sweep.Run();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(SweepQueue, RunRethrowsFirstPointException) {
  SweepQueue<int> sweep(2);
  std::atomic<int> completed{0};
  sweep.Add([]() -> int { throw std::runtime_error("sweep point exploded"); });
  for (int i = 0; i < 8; ++i) {
    sweep.Add([&completed] { return ++completed; });
  }
  EXPECT_THROW(sweep.Run(), std::runtime_error);
  // The remaining points still ran to completion.
  EXPECT_EQ(completed.load(), 8);
}

TEST(SweepQueue, IndicesMatchResultOrder) {
  SweepQueue<int> queue(3);
  std::vector<size_t> indices;
  for (int i = 0; i < 20; ++i) {
    indices.push_back(queue.Add([i] { return 1000 + i; }));
  }
  const std::vector<int> results = queue.Run();
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(indices[static_cast<size_t>(i)], static_cast<size_t>(i));
    EXPECT_EQ(results[static_cast<size_t>(i)], 1000 + i);
  }
}

}  // namespace
}  // namespace snicsim::runtime
