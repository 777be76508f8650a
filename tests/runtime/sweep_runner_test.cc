#include "src/runtime/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace snicsim::runtime {
namespace {

TEST(SweepRunner, JobsDefaultsToHardwareConcurrency) {
  EXPECT_GE(DefaultJobs(), 1);
  SweepRunner by_default(0);
  EXPECT_EQ(by_default.jobs(), DefaultJobs());
  SweepRunner three(3);
  EXPECT_EQ(three.jobs(), 3);
}

int ParseWith(int (*flag)(Flags&), const char* arg) {
  const char* argv[] = {"prog", arg};
  Flags flags(2, const_cast<char**>(argv));
  return flag(flags);
}

// The shared int flags read their value in full and refuse to truncate it
// into an int: a typo exits 2 instead of running with a default or a prefix.
TEST(SweepFlagsDeathTest, JobsAndSimThreadsRejectBadValues) {
  EXPECT_EQ(ParseWith(JobsFlag, "--jobs=3"), 3);
  EXPECT_EQ(ParseWith(SimThreadsFlag, "--sim-threads=0"), 1);  // clamps
  EXPECT_EXIT(ParseWith(JobsFlag, "--jobs=junk"), testing::ExitedWithCode(2),
              "--jobs: 'junk' is not an integer");
  EXPECT_EXIT(ParseWith(JobsFlag, "--jobs=4294967297"),
              testing::ExitedWithCode(2), "--jobs: 4294967297 does not fit an int");
  EXPECT_EXIT(ParseWith(SimThreadsFlag, "--sim-threads=2x"),
              testing::ExitedWithCode(2), "--sim-threads: '2x' is not an integer");
}

TEST(SweepRunner, RunSweepPreservesSubmissionOrder) {
  std::vector<std::function<int()>> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back([i] { return i * i; });
  }
  const std::vector<int> results = RunSweep<int>(4, std::move(points));
  ASSERT_EQ(results.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepRunner, EmptySweep) {
  const std::vector<int> results = RunSweep<int>(4, {});
  EXPECT_TRUE(results.empty());
  SweepRunner runner(2);
  runner.Wait();  // no tasks: returns immediately
}

TEST(SweepRunner, RunsTasksConcurrently) {
  // All four tasks block until all four are running at once; anything less
  // than jobs()-way concurrency deadlocks (and fails via gtest timeout).
  constexpr int kJobs = 4;
  SweepRunner runner(kJobs);
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  for (int i = 0; i < kJobs; ++i) {
    runner.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++running == kJobs) {
        cv.notify_all();
      } else {
        cv.wait(lock, [&] { return running == kJobs; });
      }
    });
  }
  runner.Wait();
  EXPECT_EQ(running, kJobs);
}

TEST(SweepRunner, IdleWorkerStealsFromBusyPeer) {
  // Tasks are dealt round-robin: with two workers, tasks 0 and 2 land on
  // worker 0's deque. Task 0 blocks until tasks 1 and 2 complete, so task 2
  // can only run if worker 1 steals it — no stealing means deadlock.
  SweepRunner runner(2);
  std::promise<void> unblock;
  std::shared_future<void> gate = unblock.get_future().share();
  std::atomic<int> others_done{0};
  runner.Submit([gate] { gate.wait(); });
  for (int i = 0; i < 2; ++i) {
    runner.Submit([&others_done, &unblock] {
      if (others_done.fetch_add(1) + 1 == 2) {
        unblock.set_value();
      }
    });
  }
  runner.Wait();
  EXPECT_EQ(others_done.load(), 2);
}

TEST(SweepRunner, WaitRethrowsFirstTaskException) {
  SweepRunner runner(2);
  std::atomic<int> completed{0};
  runner.Submit([] { throw std::runtime_error("sweep point exploded"); });
  for (int i = 0; i < 8; ++i) {
    runner.Submit([&completed] { ++completed; });
  }
  EXPECT_THROW(runner.Wait(), std::runtime_error);
  // The remaining tasks still ran to completion.
  EXPECT_EQ(completed.load(), 8);
  // A second Wait() does not rethrow the already-delivered error.
  runner.Wait();
}

TEST(SweepRunner, SubmitConcurrentWithBusyWorkersStress) {
  // Regression test for a claim/scan race: a worker's claim token
  // guarantees a task exists in some deque, but a single linear scan could
  // come up empty (a peer pops the token's task while a fresh Submit lands
  // in a deque the scan already passed) and the worker aborted the whole
  // bench. Hammer Submit from several threads against busy workers; the
  // scan must retry, never abort, and every task must run exactly once.
  SweepRunner runner(4);
  std::atomic<int> done{0};
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 2000;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&runner, &done] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        runner.Submit([&done] { ++done; });
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  runner.Wait();
  EXPECT_EQ(done.load(), kSubmitters * kPerSubmitter);
}

TEST(SweepRunner, DestructorDrainsPendingTasks) {
  std::atomic<int> completed{0};
  {
    SweepRunner runner(2);
    for (int i = 0; i < 32; ++i) {
      runner.Submit([&completed] { ++completed; });
    }
    // No Wait(): the destructor must finish every submitted task.
  }
  EXPECT_EQ(completed.load(), 32);
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
