// The trial-parallel mapping pipeline's core contract: results are
// bit-identical at any worker count. Per-trial RNGs are forked up front by
// trial index and the winner is the (latency, trial index) minimum, so
// `--jobs 1` and `--jobs 4` must produce the same MapResult — latency,
// full control trace, initial placement — for both the MVFB and the
// Monte-Carlo flows. Also unit-tests the shared Executor the flows run on
// (submit/wait, cross-job interleaving, per-job error capture, and the
// submit-only nesting the engine's setup job relies on).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/executor.hpp"
#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"

namespace qspr {
namespace {

// ---------------------------------------------------------------------------
// Executor: the submit/wait layer under the trial flows and batch service
// ---------------------------------------------------------------------------

TEST(ExecutorTest, SubmitThenWaitRunsEveryIndexOnce) {
  Executor executor(4);
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  Executor::Job job =
      executor.submit(kCount, [&](std::size_t index, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 4);
        hits[index].fetch_add(1, std::memory_order_relaxed);
      });
  executor.wait(job);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, SingleWorkerRunsIndicesInOrder) {
  Executor executor(1);
  std::vector<std::size_t> order;
  executor.wait(executor.submit(64, [&](std::size_t index, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(index);
  }));
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutorTest, ZeroCountJobsAreNoops) {
  for (const int workers : {1, 3}) {
    Executor executor(workers);
    std::atomic<int> total{0};
    const Executor::Job empty =
        executor.submit(0, [&](std::size_t, int) { total.fetch_add(1); });
    EXPECT_TRUE(empty.valid());
    executor.wait(empty);
    EXPECT_EQ(total.load(), 0) << workers << " workers";
  }
}

TEST(ExecutorTest, ReusableAfterAFailedJob) {
  for (const int workers : {1, 4}) {
    Executor executor(workers);
    EXPECT_THROW(executor.wait(executor.submit(
                     100,
                     [](std::size_t index, int) {
                       if (index == 42) {
                         throw std::runtime_error("trial failed");
                       }
                     })),
                 std::runtime_error);
    std::atomic<int> total{0};
    for (int round = 0; round < 5; ++round) {
      executor.wait(
          executor.submit(10, [&](std::size_t, int) { total.fetch_add(1); }));
    }
    EXPECT_EQ(total.load(), 50) << workers << " workers";
  }
}

TEST(ExecutorTest, RejectsZeroWorkers) { EXPECT_THROW(Executor(0), Error); }

TEST(ExecutorTest, MultipleJobsInFlightAllComplete) {
  Executor executor(3);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::atomic<int> c{0};
  Executor::Job job_a =
      executor.submit(50, [&](std::size_t, int) { a.fetch_add(1); });
  Executor::Job job_b =
      executor.submit(30, [&](std::size_t, int) { b.fetch_add(1); });
  Executor::Job job_c =
      executor.submit(0, [&](std::size_t, int) { c.fetch_add(1); });
  // Waiting out of submission order must be fine: jobs progress
  // independently on the shared workers.
  executor.wait(job_b);
  EXPECT_EQ(b.load(), 30);
  executor.wait(job_a);
  executor.wait(job_c);
  EXPECT_EQ(a.load(), 50);
  EXPECT_EQ(c.load(), 0);
}

TEST(ExecutorTest, PerJobErrorCaptureLeavesOtherJobsUnharmed) {
  Executor executor(4);
  std::atomic<int> healthy{0};
  Executor::Job failing =
      executor.submit(40, [&](std::size_t index, int) {
        if (index % 2 == 1) {
          throw std::runtime_error("trial " + std::to_string(index));
        }
      });
  Executor::Job clean =
      executor.submit(40, [&](std::size_t, int) { healthy.fetch_add(1); });
  executor.wait(clean);  // unaffected by its failing neighbour
  EXPECT_EQ(healthy.load(), 40);
  EXPECT_THROW(executor.wait(failing), std::runtime_error);
  // The executor stays usable after a failed job.
  Executor::Job again =
      executor.submit(8, [&](std::size_t, int) { healthy.fetch_add(1); });
  executor.wait(again);
  EXPECT_EQ(healthy.load(), 48);
}

TEST(ExecutorTest, SerialExecutorFailsDeterministicallyAtLowestIndex) {
  Executor executor(1);
  std::vector<std::size_t> ran;
  Executor::Job job = executor.submit(10, [&](std::size_t index, int worker) {
    EXPECT_EQ(worker, 0);
    ran.push_back(index);
    if (index >= 2) throw std::runtime_error("boom " + std::to_string(index));
  });
  try {
    executor.wait(job);
    FAIL() << "expected the job failure to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");  // lowest failing index
  }
  // Serial execution is strictly in order and abandons after the failure.
  ASSERT_EQ(ran.size(), 3u);
  EXPECT_EQ(ran[2], 2u);
  // Waiting again is idempotent and reports the same failure.
  EXPECT_THROW(executor.wait(job), std::runtime_error);
}

TEST(ExecutorTest, WaitOnInvalidJobThrows) {
  Executor executor(2);
  Executor::Job job;
  EXPECT_FALSE(job.valid());
  EXPECT_THROW(executor.wait(job), Error);
}

// ---------------------------------------------------------------------------
// Nested submission: bodies may submit to their own executor, never wait
// ---------------------------------------------------------------------------

TEST(ExecutorNested, BodiesThatSubmitWithoutWaitingComplete) {
  // The engine's setup-overlap pattern: each outer body submits a sub-job
  // and returns; the external thread waits on the outer job, then on every
  // sub-job it spawned.
  for (const int workers : {1, 2, 4}) {
    Executor executor(workers);
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 16;
    std::atomic<int> inner_runs{0};
    std::mutex handles_mutex;
    std::vector<Executor::Job> subs;
    const Executor::Job outer =
        executor.submit(kOuter, [&](std::size_t, int) {
          Executor::Job sub = executor.submit(kInner, [&](std::size_t, int) {
            inner_runs.fetch_add(1, std::memory_order_relaxed);
          });
          const std::lock_guard<std::mutex> lock(handles_mutex);
          subs.push_back(std::move(sub));
        });
    executor.wait(outer);
    ASSERT_EQ(subs.size(), kOuter);
    for (const Executor::Job& sub : subs) executor.wait(sub);
    EXPECT_EQ(inner_runs.load(), static_cast<int>(kOuter * kInner))
        << workers << " workers";
  }
}

TEST(ExecutorNested, WaitFromInsideABodyThrows) {
  // A body waiting on its own executor could block a pool thread on work
  // queued behind itself; wait() rejects it instead of deadlocking, on the
  // pool threads and on a waiter running bodies as worker 0 alike.
  for (const int workers : {1, 3}) {
    Executor executor(workers);
    constexpr std::size_t kOuter = 6;
    std::atomic<int> rejected{0};
    std::mutex handles_mutex;
    std::vector<Executor::Job> subs;
    const Executor::Job outer =
        executor.submit(kOuter, [&](std::size_t, int) {
          Executor::Job sub = executor.submit(4, [](std::size_t, int) {});
          try {
            executor.wait(sub);
          } catch (const Error&) {
            rejected.fetch_add(1);
          }
          const std::lock_guard<std::mutex> lock(handles_mutex);
          subs.push_back(std::move(sub));
        });
    executor.wait(outer);
    for (const Executor::Job& sub : subs) executor.wait(sub);
    EXPECT_EQ(rejected.load(), static_cast<int>(kOuter))
        << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Bit-identical mapping at any --jobs value
// ---------------------------------------------------------------------------

void expect_identical(const MapResult& serial, const MapResult& parallel,
                      const char* label) {
  EXPECT_EQ(serial.latency, parallel.latency) << label;
  EXPECT_EQ(serial.placement_runs, parallel.placement_runs) << label;
  EXPECT_EQ(serial.initial_placement, parallel.initial_placement) << label;
  EXPECT_EQ(serial.final_placement, parallel.final_placement) << label;
  ASSERT_EQ(serial.trace.size(), parallel.trace.size()) << label;
  EXPECT_EQ(serial.trace.to_string(), parallel.trace.to_string()) << label;
}

class ParallelDeterminism : public ::testing::TestWithParam<QeccCode> {};

TEST_P(ParallelDeterminism, MvfbFlowMatchesSerial) {
  const Program program = make_encoder(GetParam());
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.placer = PlacerKind::Mvfb;
  options.mvfb_seeds = 6;
  options.rng_seed = 17;

  options.jobs = 1;
  const MapResult serial = map_program(program, fabric, options);
  options.jobs = 4;
  const MapResult parallel = map_program(program, fabric, options);
  expect_identical(serial, parallel, code_name(GetParam()).c_str());
}

TEST_P(ParallelDeterminism, MonteCarloFlowMatchesSerial) {
  const Program program = make_encoder(GetParam());
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 16;
  options.rng_seed = 5;

  options.jobs = 1;
  const MapResult serial = map_program(program, fabric, options);
  options.jobs = 4;
  const MapResult parallel = map_program(program, fabric, options);
  expect_identical(serial, parallel, code_name(GetParam()).c_str());
}

INSTANTIATE_TEST_SUITE_P(Codes, ParallelDeterminism,
                         ::testing::Values(QeccCode::Q5_1_3,
                                           QeccCode::Q7_1_3));

// Engine-level checks across worker counts, including oversubscribed
// engines (more workers than trials), which map_program's clamp never
// builds.
MapResult map_on_engine(int workers, const MapperOptions& options) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MappingEngine engine(workers);
  return engine.map(program, fabric, options);
}

TEST(ParallelDeterminismDirect, MvfbAgreesAcrossEngineWorkerCounts) {
  MapperOptions options;
  options.mvfb_seeds = 5;
  options.rng_seed = 23;
  const MapResult reference = map_on_engine(1, options);
  for (const int workers : {2, 4, 8}) {
    expect_identical(reference, map_on_engine(workers, options),
                     ("mvfb, workers " + std::to_string(workers)).c_str());
  }
}

TEST(ParallelDeterminismDirect, MonteCarloAgreesAcrossEngineWorkerCounts) {
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 10;
  options.rng_seed = 9;
  const MapResult serial = map_on_engine(1, options);
  for (const int workers : {2, 4, 16}) {
    expect_identical(serial, map_on_engine(workers, options),
                     ("monte carlo, workers " + std::to_string(workers))
                         .c_str());
  }
}

TEST(ParallelDeterminismDirect, MapperRejectsBadJobs) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.jobs = 0;
  EXPECT_THROW(map_program(program, fabric, options), Error);
}

// trial_cpu_ms aggregates per-worker time: it is populated for the trial
// flows and (being a sum over all trials) at least the single best trial's
// share of the wall clock.
TEST(ParallelDeterminismDirect, TrialCpuTimeIsReported) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 8;
  options.jobs = 2;
  const MapResult result = map_program(program, fabric, options);
  EXPECT_GT(result.trial_cpu_ms, 0.0);
  EXPECT_EQ(result.jobs, 2);
}

}  // namespace
}  // namespace qspr
