// run_guarded (core/guarded_run.*): the governable front door. Covers the
// acceptance contract of the run-guard runtime — clean Status on deadline /
// budget exhaustion with accounting drained, sampled fallback flagged
// approximate under --on-budget degrade, cancellation that never degrades —
// at multiple thread counts and through the distributed driver.

#include "core/guarded_run.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "baselines/brute_dbscan.hpp"
#include "core/murtree.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"

namespace udb {
namespace {

Dataset small_blobs() { return gen_blobs(1500, 2, 3, 100.0, 3.0, 0.05, 7); }
DbscanParams small_params() { return DbscanParams{2.0, 5}; }

TEST(GuardedRun, RejectsBadArguments) {
  const Dataset ds = small_blobs();
  EXPECT_EQ(run_guarded(ds, DbscanParams{0.0, 5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run_guarded(ds, DbscanParams{1.0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  GuardedRunOptions opts;
  opts.ranks = 0;
  EXPECT_EQ(run_guarded(ds, small_params(), opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = {};
  opts.on_budget = OnBudget::kDegrade;
  opts.degrade_rho = 0.0;
  EXPECT_EQ(run_guarded(ds, small_params(), opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GuardedRun, UnlimitedRunIsExact) {
  const Dataset ds = small_blobs();
  const DbscanParams params = small_params();
  const ClusteringResult ref = brute_dbscan(ds, params);
  for (unsigned nt : {1u, 4u}) {
    GuardedRunOptions opts;
    opts.mu.num_threads = nt;
    auto run = run_guarded(ds, params, opts);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_FALSE(run->approximate);
    const auto rep = compare_exact(ref, run->result);
    EXPECT_TRUE(rep.exact()) << "threads=" << nt << ": " << rep.detail;
    EXPECT_GT(run->guard_checkpoints, 0u);
  }
}

TEST(GuardedRun, DistributedRunIsExactAndGoverned) {
  const Dataset ds = small_blobs();
  const DbscanParams params = small_params();
  GuardedRunOptions opts;
  opts.ranks = 3;
  opts.limits.memory_budget_bytes = std::size_t{1} << 30;  // roomy
  auto run = run_guarded(ds, params, opts);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const auto rep = compare_exact(brute_dbscan(ds, params), run->result);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_GT(run->guard_checkpoints, 0u);  // rank engines share the guard
  EXPECT_GT(run->mem_peak_bytes, vector_bytes(ds.raw()));
}

TEST(GuardedRun, BudgetExhaustionFailsCleanly) {
  const Dataset ds = small_blobs();
  for (unsigned nt : {1u, 2u}) {
    GuardedRunOptions opts;
    opts.mu.num_threads = nt;
    // Enough for the dataset (1500*2*8 = 24 KB) but not for the index.
    opts.limits.memory_budget_bytes = 32 * 1024;
    RunGuard guard;
    auto run = run_guarded(ds, small_params(), opts, &guard);
    ASSERT_FALSE(run.ok()) << "threads=" << nt;
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    // Every charge drained on unwind: the accounting (and with it the heap,
    // checked by the sanitizer job) is clean after a failed run.
    EXPECT_EQ(guard.bytes_in_use(), 0u);
  }
}

TEST(GuardedRun, BudgetTooSmallForGridIndexTripsCleanly) {
  // Room for the dataset, the engine flags and the µR-tree skeleton (8 bytes
  // each per point, plus 16 for the 2-D coordinates) but not for the built
  // index: the trip lands at the "murtree index" charge, which includes the
  // level-1 centre grid (2-D data is in the grid regime).
  const Dataset ds = small_blobs();
  ASSERT_TRUE(MuRTree(ds, small_params().eps).level1_is_grid());
  for (unsigned nt : {1u, 4u}) {
    GuardedRunOptions opts;
    opts.mu.num_threads = nt;
    opts.limits.memory_budget_bytes = ds.size() * 32 + 1024;
    RunGuard guard;
    auto run = run_guarded(ds, small_params(), opts, &guard);
    ASSERT_FALSE(run.ok()) << "threads=" << nt;
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(run.status().message().find("murtree index"), std::string::npos)
        << run.status().message();
    EXPECT_EQ(guard.bytes_in_use(), 0u);
  }
}

TEST(GuardedRun, BudgetSmallerThanDatasetNamesTheDataset) {
  const Dataset ds = small_blobs();
  GuardedRunOptions opts;
  opts.limits.memory_budget_bytes = 1024;
  auto run = run_guarded(ds, small_params(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(run.status().message().find("dataset"), std::string::npos);
}

TEST(GuardedRun, DeadlineExhaustionFailsCleanly) {
  const Dataset ds = small_blobs();
  GuardedRunOptions opts;
  opts.limits.deadline_seconds = 1e-9;  // trips at the first checkpoint
  RunGuard guard;
  auto run = run_guarded(ds, small_params(), opts, &guard);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guard.bytes_in_use(), 0u);
}

TEST(GuardedRun, DegradeFallsBackToSampledAndFlagsIt) {
  const Dataset ds = small_blobs();
  for (unsigned nt : {1u, 2u}) {
    GuardedRunOptions opts;
    opts.mu.num_threads = nt;
    opts.limits.memory_budget_bytes = 32 * 1024;  // exact run cannot fit
    opts.on_budget = OnBudget::kDegrade;
    opts.degrade_rho = 0.5;
    auto run = run_guarded(ds, small_params(), opts);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_TRUE(run->approximate);
    EXPECT_DOUBLE_EQ(run->sample_rho, 0.5);
    EXPECT_GT(run->sample_size, 0u);
    EXPECT_EQ(run->degrade_reason.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(run->result.size(), ds.size());
  }
}

TEST(GuardedRun, DegradeAppliesToDeadlineToo) {
  const Dataset ds = small_blobs();
  GuardedRunOptions opts;
  opts.limits.deadline_seconds = 1e-9;
  opts.on_budget = OnBudget::kDegrade;
  auto run = run_guarded(ds, small_params(), opts);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  EXPECT_TRUE(run->approximate);
  EXPECT_EQ(run->degrade_reason.code(), StatusCode::kDeadlineExceeded);
}

TEST(GuardedRun, CancellationNeverDegrades) {
  const Dataset ds = small_blobs();
  for (unsigned nt : {1u, 4u}) {
    GuardedRunOptions opts;
    opts.mu.num_threads = nt;
    opts.on_budget = OnBudget::kDegrade;  // must NOT kick in for a cancel
    RunGuard guard;
    guard.request_cancel();
    auto run = run_guarded(ds, small_params(), opts, &guard);
    ASSERT_FALSE(run.ok()) << "threads=" << nt;
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(guard.bytes_in_use(), 0u);
  }
}

TEST(GuardedRun, CancellationFromAnotherThreadStopsParallelRun) {
  // A watcher thread trips the token while the 4-thread engine runs; the
  // engine must come back CANCELLED (it observes the token at the next
  // chunk checkpoint — the per-chunk latency bound is asserted directly in
  // test_runguard.cpp).
  const Dataset ds = gen_blobs(20000, 3, 5, 100.0, 3.0, 0.05, 11);
  GuardedRunOptions opts;
  opts.mu.num_threads = 4;
  RunGuard guard;
  std::thread watcher([&guard] { guard.request_cancel(); });
  auto run = run_guarded(ds, DbscanParams{2.0, 5}, opts, &guard);
  watcher.join();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.bytes_in_use(), 0u);
}

TEST(GuardedRun, DistributedDeadlineSurfacesCleanStatus) {
  const Dataset ds = small_blobs();
  GuardedRunOptions opts;
  opts.ranks = 3;
  opts.limits.deadline_seconds = 1e-9;
  RunGuard guard;
  auto run = run_guarded(ds, small_params(), opts, &guard);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guard.bytes_in_use(), 0u);
}

TEST(GuardedRun, DistributedDegradeProducesApproximateResult) {
  const Dataset ds = small_blobs();
  GuardedRunOptions opts;
  opts.ranks = 3;
  opts.limits.deadline_seconds = 1e-9;
  opts.on_budget = OnBudget::kDegrade;
  auto run = run_guarded(ds, small_params(), opts);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  EXPECT_TRUE(run->approximate);
  EXPECT_EQ(run->result.size(), ds.size());
}

}  // namespace
}  // namespace udb
