// The tentpole guarantee of the thread-parallel engine: for every thread
// count, the clustering is exact-equal to the one-thread run (same core set,
// same core partition, same noise set) — which is itself exact-equal to
// classical DBSCAN (Theorem 1). Each parallel configuration is run several
// times so racy interleavings get a chance to differ; they must not.

#include <gtest/gtest.h>

#include "baselines/brute_dbscan.hpp"
#include "common/rng.hpp"
#include "core/mudbscan.hpp"
#include "core/mudbscan_engine.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"

namespace udb {
namespace {

struct ParCase {
  const char* tag;
  std::size_t n;
  std::size_t dim;
  double eps;
  std::uint32_t min_pts;
  std::uint64_t seed;
};

void PrintTo(const ParCase& c, std::ostream* os) {
  *os << c.tag << "_n" << c.n << "_d" << c.dim << "_e" << c.eps << "_m"
      << c.min_pts;
}

Dataset make_dataset(const ParCase& c) {
  const std::string tag = c.tag;
  if (tag == "blobs") return gen_blobs(c.n, c.dim, 5, 100.0, 3.0, 0.15, c.seed);
  if (tag == "galaxy") {
    GalaxyConfig cfg;
    cfg.halos = 8;
    cfg.subhalos_per_halo = 5;
    cfg.box = 150.0;
    return gen_galaxy(c.n, cfg, c.seed);
  }
  if (tag == "roadnet") {
    RoadnetConfig cfg;
    cfg.waypoints = 50;
    return gen_roadnet(c.n, cfg, c.seed);
  }
  if (tag == "uniform") return gen_uniform(c.n, c.dim, 0.0, 25.0, c.seed);
  throw std::logic_error("unknown tag");
}

class ParallelExactness : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelExactness, EveryThreadCountMatchesSequential) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};

  MuDbscanConfig seq_cfg;
  seq_cfg.num_threads = 1;
  MuDbscanStats seq_st;
  const auto seq = mu_dbscan(ds, prm, &seq_st, seq_cfg);

  for (const unsigned nt : {2u, 4u, 8u}) {
    // Repeat: thread interleavings differ run to run, the clustering must
    // not.
    for (int rep = 0; rep < 3; ++rep) {
      MuDbscanConfig cfg;
      cfg.num_threads = nt;
      MuDbscanStats st;
      const auto got = mu_dbscan(ds, prm, &st, cfg);
      const auto rep_cmp = compare_exact(seq, got);
      EXPECT_TRUE(rep_cmp.exact())
          << "threads=" << nt << " rep=" << rep << ": " << rep_cmp.detail;
      // Tree phases are deterministic, so the MC census matches exactly.
      EXPECT_EQ(st.num_mcs, seq_st.num_mcs) << nt;
      EXPECT_EQ(st.dmc, seq_st.dmc) << nt;
      EXPECT_EQ(st.cmc, seq_st.cmc) << nt;
      EXPECT_EQ(st.smc, seq_st.smc) << nt;
      // Promotion races can only save queries relative to an adversarial
      // schedule, never exceed one query per point.
      EXPECT_LE(st.queries_performed, ds.size()) << nt;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelExactness,
    ::testing::Values(ParCase{"blobs", 3000, 2, 2.0, 5, 41},
                      ParCase{"blobs", 2500, 3, 2.5, 5, 42},
                      ParCase{"galaxy", 3000, 3, 1.5, 5, 43},
                      ParCase{"roadnet", 2500, 3, 1.0, 4, 44},
                      ParCase{"uniform", 2000, 2, 1.0, 4, 45}));

TEST(ParallelExactnessExtra, ParallelMatchesBruteForce) {
  // Close the loop once against ground truth, not just against the
  // sequential engine.
  Dataset ds = gen_blobs(1200, 2, 4, 80.0, 3.0, 0.2, 77);
  const DbscanParams prm{2.0, 5};
  const auto truth = brute_dbscan(ds, prm);
  MuDbscanConfig cfg;
  cfg.num_threads = 4;
  const auto got = mu_dbscan(ds, prm, nullptr, cfg);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(ParallelExactnessExtra, TinyAndDegenerateInputs) {
  MuDbscanConfig cfg;
  cfg.num_threads = 8;  // far more threads than points
  const DbscanParams prm{1.0, 3};

  Dataset one = Dataset::empty(2);
  one.push_back(std::vector<double>{0.0, 0.0});
  const auto r1 = mu_dbscan(one, prm, nullptr, cfg);
  EXPECT_EQ(r1.label.size(), 1u);
  EXPECT_EQ(r1.label[0], kNoise);

  Dataset few = gen_uniform(10, 2, 0.0, 100.0, 3);  // all noise, far apart
  const auto r2 = mu_dbscan(few, prm, nullptr, cfg);
  const auto seq2 = mu_dbscan(few, prm);
  EXPECT_TRUE(compare_exact(seq2, r2).exact());

  // Zero noise points: every point core. Exercises the noise CSR invariant
  // (noise_off_ must hold exactly one offset with no noise entries).
  Dataset dense = gen_blobs(200, 2, 1, 5.0, 0.3, 0.0, 9);
  const DbscanParams dense_prm{2.0, 3};
  const auto r3 = mu_dbscan(dense, dense_prm, nullptr, cfg);
  const auto seq3 = mu_dbscan(dense, dense_prm);
  EXPECT_TRUE(compare_exact(seq3, r3).exact());
}

// ---- One-thread counter pins ----------------------------------------------
// At one thread the engine's schedule is fully deterministic, so every work
// counter is a fixed function of the input. The literals below pin that
// function on adversarial inputs; any change to the visit order or to a
// decision of Algorithms 4/6/7/8 at one thread shows up here as a diff.

// Integer coordinates in [0, 120]^2 at eps = 5: many pairs sit exactly eps
// apart (5-0 and 3-4-5 offsets), integer collisions and every seventh point
// repeated give duplicates, and zero coordinates flip to -0.0 on a coin toss.
Dataset integer_lattice(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::empty(2);
  for (std::size_t i = 0; i < n; ++i) {
    double p[2];
    for (double& x : p) {
      x = static_cast<double>(rng.uniform_index(121));
      if (x == 0.0 && rng.uniform_index(2) == 0) x = -0.0;
    }
    const int copies = i % 7 == 0 ? 3 : 1;
    for (int c = 0; c < copies; ++c) ds.push_back(p);
  }
  return ds;
}

// Stacks of five duplicates along two chains whose neighbours sit exactly
// eps = 5 apart, so no stack reaches the next: (5a, +-0.0), each stack mixing
// +0.0 and -0.0 twins, and the 3-4-5 diagonal (3a, 100 + 4a). Single points
// halfway between some stacks bridge them; single points exactly eps beyond
// a stack stay out of it.
Dataset eps_chains() {
  Dataset ds = Dataset::empty(2);
  for (int a = 0; a < 30; ++a) {
    for (int c = 0; c < 5; ++c) {
      ds.push_back(std::vector<double>{5.0 * a, c % 2 ? -0.0 : 0.0});
      ds.push_back(std::vector<double>{3.0 * a, 100.0 + 4.0 * a});
    }
    if (a % 4 == 1) {
      ds.push_back(std::vector<double>{5.0 * a + 2.5, 0.0});
      ds.push_back(std::vector<double>{3.0 * a + 1.5, 102.0 + 4.0 * a});
    }
    if (a % 5 == 2) ds.push_back(std::vector<double>{5.0 * a, 5.0});
  }
  return ds;
}

struct PinnedCounters {
  std::uint64_t num_mcs, dmc, cmc, smc;
  std::uint64_t queries_performed, avoided_dmc, avoided_cmc, avoided_promotion;
  std::uint64_t wndq_core_points, post_core_distance_evals;
  std::uint64_t union_calls, noise_provisional, border_repaired;
};

void expect_pinned(const char* what, const Dataset& ds,
                   const DbscanParams& prm, const PinnedCounters& want) {
  SCOPED_TRACE(what);
  MuDbscanConfig cfg;
  cfg.num_threads = 1;
  MuDbscanEngine engine(ds, prm, cfg);
  engine.run_all();
  const auto got = engine.extract_result();
  const auto truth = brute_dbscan(ds, prm);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_EQ(got.is_core, truth.is_core);

  const MuDbscanStats& st = engine.stats;
  const obs::MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(st.num_mcs, want.num_mcs);
  EXPECT_EQ(st.dmc, want.dmc);
  EXPECT_EQ(st.cmc, want.cmc);
  EXPECT_EQ(st.smc, want.smc);
  EXPECT_EQ(st.queries_performed, want.queries_performed);
  EXPECT_EQ(st.avoided_dmc, want.avoided_dmc);
  EXPECT_EQ(st.avoided_cmc, want.avoided_cmc);
  EXPECT_EQ(st.avoided_promotion, want.avoided_promotion);
  EXPECT_EQ(st.wndq_core_points, want.wndq_core_points);
  EXPECT_EQ(st.post_core_distance_evals, want.post_core_distance_evals);
  EXPECT_EQ(m.counter(obs::Counter::kUnionCalls), want.union_calls);
  EXPECT_EQ(m.counter(obs::Counter::kNoiseProvisional),
            want.noise_provisional);
  EXPECT_EQ(m.counter(obs::Counter::kBorderRepaired), want.border_repaired);
}

TEST(ParallelExactnessOneThread, CountersPinnedOnAdversarialInputs) {
  expect_pinned("integer_lattice", integer_lattice(1500, 16), {5.0, 8},
                {331, 6, 98, 227, 1578, 59, 98, 195, 352, 97, 8819, 183, 1});
  expect_pinned("eps_chains", eps_chains(), {5.0, 5},
                {66, 0, 60, 6, 82, 0, 60, 180, 240, 1824, 740, 6, 0});
  expect_pinned("giant_cluster", gen_blobs(2500, 3, 1, 10.0, 1.0, 0.0, 16),
                {1.0, 5},
                {94, 25, 29, 40, 389, 430, 29, 1652, 2111, 0, 28880, 7, 0});
}

}  // namespace
}  // namespace udb
