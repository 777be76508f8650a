#include "src/runtime/sweep_runner.h"

#include <limits>
#include <string>

#include "src/common/log.h"
#include "src/common/spec.h"

namespace snicsim::runtime {

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// An int-typed flag rejects a value outside int instead of truncating it.
int IntFlag(Flags& flags, const std::string& name, int def,
            const std::string& help) {
  const int64_t v = flags.GetInt(name, def, help);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    spec::ExitBadFlag(name, std::to_string(v) + " does not fit an int");
  }
  return static_cast<int>(v);
}

}  // namespace

int JobsFlag(Flags& flags) {
  return IntFlag(flags, "jobs", DefaultJobs(),
                 "experiments to run concurrently (sweep points are independent; "
                 "output is byte-identical for any value)");
}

int SimThreadsFlag(Flags& flags) {
  const int n = IntFlag(
      flags, "sim-threads", 1,
      "event cores per simulation (multi-domain sims shard per-server "
      "domains across them; output is byte-identical for any value)");
  return n < 1 ? 1 : n;
}

SweepRunner::SweepRunner(int jobs) {
  const int n = jobs <= 0 ? DefaultJobs() : jobs;
  queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void SweepRunner::Submit(Task task) {
  SNIC_CHECK(task != nullptr);
  size_t victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
    victim = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[victim]->mu);
    queues_[victim]->tasks.push_back(std::move(task));
  }
  {
    // The claim token is published only after the task is visible in its
    // deque, so a woken worker is guaranteed to find work somewhere.
    std::lock_guard<std::mutex> lock(mu_);
    ++unclaimed_;
  }
  work_cv_.notify_one();
}

void SweepRunner::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void SweepRunner::WorkerLoop(size_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return unclaimed_ > 0 || stop_; });
    if (unclaimed_ == 0) {
      if (stop_) {
        return;
      }
      continue;
    }
    --unclaimed_;
    lock.unlock();
    RunOne(self);
    lock.lock();
  }
}

void SweepRunner::RunOne(size_t self) {
  // Own deque first (front: submission order), then steal from the back of
  // the peers. The claim token taken in WorkerLoop guarantees a task exists
  // in some deque for the whole scan, but not that one linear pass sees it:
  // a concurrent worker can pop the task this token pointed at while a
  // fresh Submit (with its own token) lands in a deque already scanned. The
  // token count never exceeds the task count, so rescanning must succeed.
  Task task;
  bool found = false;
  const size_t n = queues_.size();
  while (!found) {
    for (size_t i = 0; i < n && !found; ++i) {
      WorkerQueue& q = *queues_[(self + i) % n];
      std::lock_guard<std::mutex> lock(q.mu);
      if (!q.tasks.empty()) {
        if (i == 0) {
          task = std::move(q.tasks.front());
          q.tasks.pop_front();
        } else {
          task = std::move(q.tasks.back());
          q.tasks.pop_back();
        }
        found = true;
      }
    }
    if (!found) {
      std::this_thread::yield();
    }
  }
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_ == nullptr) {
      error_ = std::current_exception();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    if (pending_ == 0) {
      done_cv_.notify_all();
    }
  }
}

}  // namespace snicsim::runtime
