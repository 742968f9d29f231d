// Incremental µDBSCAN differential suite: after ANY interleaved insert/erase
// sequence the engine's canonical result() must equal the batch algorithm
// fit from scratch on the surviving points (canonicalized the same way), at
// every oracle thread count — plus the structural invariants the maintenance
// relies on (counts, core flags, border caches, label partition).

#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/mudbscan.hpp"
#include "core/streaming.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"

namespace udb {
namespace {

// The headline oracle: fit-from-scratch on the survivors, canonicalized, must
// equal result() as plain vectors (labels AND core flags).
void expect_matches_batch(const IncrementalMuDbscan& eng, unsigned threads,
                          const std::string& ctx) {
  const Dataset ds = eng.survivors();
  MuDbscanConfig cfg;
  cfg.num_threads = threads;
  const ClusteringResult want = canonicalize_clustering(
      ds, eng.params(), mu_dbscan(ds, eng.params(), nullptr, cfg));
  const ClusteringResult got = eng.result();
  ASSERT_EQ(got.label.size(), want.label.size()) << ctx;
  EXPECT_EQ(got.label, want.label) << ctx << " (threads=" << threads << ")";
  EXPECT_EQ(got.is_core, want.is_core) << ctx << " (threads=" << threads << ")";
  EXPECT_EQ(eng.num_core(), want.num_core()) << ctx;
}

// Clustered 2-D churn around a few attractors so inserts keep hitting dense
// regions (promotions, merges) and erasures keep hitting cluster interiors
// (demotions, splits).
double attractor_coord(Rng& rng) {
  static constexpr double kCenters[] = {-4.0, 0.0, 4.0};
  return kCenters[rng.uniform_index(3)] + rng.normal() * 0.9;
}

TEST(Incremental, MatchesBatchUnderRandomChurn) {
  const DbscanParams prm{1.2, 4};
  const unsigned kThreads[] = {1, 2, 4};
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    Rng rng(seed);
    IncrementalMuDbscan eng(2, prm);
    std::vector<PointId> ids;
    std::size_t tsel = 0;
    for (int op = 0; op < 420; ++op) {
      const bool do_erase = !ids.empty() && rng.next_double() < 0.35;
      if (do_erase) {
        const std::size_t k = rng.uniform_index(ids.size());
        ASSERT_TRUE(eng.erase(ids[k]));
        ids[k] = ids.back();
        ids.pop_back();
      } else {
        const double pt[2] = {attractor_coord(rng), attractor_coord(rng)};
        ids.push_back(eng.insert(pt));
      }
      if (op % 60 == 59) {
        expect_matches_batch(eng, kThreads[tsel++ % 3],
                             "seed " + std::to_string(seed) + " op " +
                                 std::to_string(op));
      }
    }
    ASSERT_NO_THROW(eng.check_invariants()) << "seed " << seed;
    expect_matches_batch(eng, kThreads[tsel % 3],
                         "seed " + std::to_string(seed) + " final");
    EXPECT_EQ(eng.stats().inserts + eng.stats().deletes, 420u);
  }
}

TEST(Incremental, MatchesBatchAcrossChunkBoundaryWithErasures) {
  // More ids than one 4096-point storage chunk, then a heavy erase wave:
  // pointers into earlier chunks and the id<->survivor-position mapping must
  // both survive.
  Dataset ds = gen_blobs(5000, 2, 3, 40.0, 2.0, 0.1, 29);
  const DbscanParams prm{1.5, 5};
  IncrementalMuDbscan eng(2, prm);
  std::vector<PointId> ids;
  ids.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i)
    ids.push_back(eng.insert(ds.point(static_cast<PointId>(i))));
  Rng rng(31);
  for (int k = 0; k < 1200; ++k) {
    const std::size_t j = rng.uniform_index(ids.size());
    ASSERT_TRUE(eng.erase(ids[j]));
    ids[j] = ids.back();
    ids.pop_back();
  }
  EXPECT_EQ(eng.size(), 3800u);
  EXPECT_EQ(eng.total(), 5000u);
  expect_matches_batch(eng, 2, "chunk-boundary churn");
}

TEST(Incremental, DeleteSplitsBridgedCluster) {
  // A 1-D chain 0,1,2,3,4 with eps=1.1, MinPts=2: one cluster bridged by the
  // middle point. Erasing it must split the cluster in two — the scoped BFS
  // has to detect the disconnection, not just demote.
  const DbscanParams prm{1.1, 2};
  IncrementalMuDbscan eng(1, prm);
  std::vector<PointId> ids;
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    const double pt[1] = {x};
    ids.push_back(eng.insert(pt));
  }
  EXPECT_EQ(eng.result().num_clusters(), 1u);
  const std::uint64_t repairs_before = eng.stats().graph_edges_repaired;
  ASSERT_TRUE(eng.erase(ids[2]));
  const ClusteringResult got = eng.result();
  EXPECT_EQ(got.num_clusters(), 2u);
  const std::vector<std::int64_t> want_labels = {0, 0, 1, 1};
  EXPECT_EQ(got.label, want_labels);
  // The split relabeled one surviving component.
  EXPECT_GT(eng.stats().graph_edges_repaired, repairs_before);
  expect_matches_batch(eng, 1, "post-split");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, DuplicatesAndSignedZeroEraseByEquality) {
  const DbscanParams prm{0.5, 3};
  IncrementalMuDbscan eng(1, prm);
  const double zero[1] = {0.0};
  const double neg_zero[1] = {-0.0};
  const double far[1] = {10.0};
  for (int i = 0; i < 3; ++i) eng.insert(zero);      // ids 0,1,2
  for (int i = 0; i < 2; ++i) eng.insert(neg_zero);  // ids 3,4
  eng.insert(far);                                   // id 5
  expect_matches_batch(eng, 1, "dup ingest");
  // erase_equal is bitwise: -0.0 must match only the -0.0 insertions, lowest
  // alive id first.
  EXPECT_EQ(eng.erase_equal(neg_zero), PointId{3});
  EXPECT_EQ(eng.erase_equal(neg_zero), PointId{4});
  EXPECT_EQ(eng.erase_equal(neg_zero), kInvalidPoint);
  EXPECT_EQ(eng.erase_equal(zero), PointId{0});
  const double absent[1] = {5.0};
  EXPECT_EQ(eng.erase_equal(absent), kInvalidPoint);
  EXPECT_EQ(eng.size(), 3u);
  expect_matches_batch(eng, 1, "after bitwise erasures");
  ASSERT_NO_THROW(eng.check_invariants());
}

// The lowest alive id bitwise equal to pt, by a scan over every id.
PointId scan_equal(const IncrementalMuDbscan& eng,
                   const std::vector<double>& pt) {
  for (PointId id = 0; id < eng.total(); ++id)
    if (eng.alive(id) && std::memcmp(eng.point(id).data(), pt.data(),
                                     pt.size() * sizeof(double)) == 0)
      return id;
  return kInvalidPoint;
}

TEST(Incremental, EraseEqualAgreesWithScan) {
  // Lattice coordinates make duplicates common; signed zeros and 1e300
  // offsets stress the bitwise rule and the centre lookup; lookups include
  // absent points. Every answer must be the scan's lowest alive id.
  const DbscanParams prm{0.7, 3};
  IncrementalMuDbscan eng(2, prm);
  Rng rng(211);
  auto coord = [&rng] {
    const double v = 0.5 * static_cast<double>(rng.uniform_index(9)) - 2.0;
    return (v == 0.0 && rng.uniform_index(2) == 0) ? -0.0 : v;
  };
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 400; ++i) {
    const double off = i % 50 == 0 ? 1e300 : 0.0;
    pts.push_back({coord() + off, coord()});
    (void)eng.insert(pts.back());
  }
  for (int k = 0; k < 500; ++k) {
    std::vector<double> q = rng.uniform_index(5) == 0
                                ? std::vector<double>{coord() + 0.25, coord()}
                                : pts[rng.uniform_index(pts.size())];
    const PointId want = scan_equal(eng, q);
    ASSERT_EQ(eng.erase_equal(q), want) << "lookup " << k;
    if (want != kInvalidPoint) {
      EXPECT_FALSE(eng.alive(want));
    }
  }
  expect_matches_batch(eng, 1, "after bitwise erasures");
  ASSERT_NO_THROW(eng.check_invariants());

  // Non-finite coordinates have no centre within eps: the scan path.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> odd = {
      {nan, 1.0}, {inf, 2.0}, {-inf, inf}, {nan, 1.0}};
  std::vector<PointId> odd_ids;
  for (const std::vector<double>& p : odd) odd_ids.push_back(eng.insert(p));
  EXPECT_EQ(eng.erase_equal(odd[3]), odd_ids[0]);  // NaN matches by payload
  EXPECT_EQ(eng.erase_equal(odd[1]), odd_ids[1]);
  EXPECT_EQ(eng.erase_equal(odd[2]), odd_ids[2]);
  EXPECT_EQ(eng.erase_equal(odd[0]), odd_ids[3]);
  EXPECT_EQ(eng.erase_equal(odd[0]), kInvalidPoint);
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, DegenerateAllCoincidentPoints) {
  // n identical points: all core while n >= MinPts; erasing below the
  // threshold demotes the whole cluster to noise at once (the failed set is
  // the entire cluster).
  const DbscanParams prm{1.0, 5};
  IncrementalMuDbscan eng(3, prm);
  const double pt[3] = {2.0, -1.0, 0.5};
  std::vector<PointId> ids;
  for (int i = 0; i < 7; ++i) ids.push_back(eng.insert(pt));
  EXPECT_EQ(eng.num_core(), 7u);
  EXPECT_EQ(eng.num_mcs(), 1u);
  ASSERT_TRUE(eng.erase(ids[0]));
  ASSERT_TRUE(eng.erase(ids[3]));
  EXPECT_EQ(eng.num_core(), 5u);
  expect_matches_batch(eng, 2, "coincident at MinPts");
  ASSERT_TRUE(eng.erase(ids[6]));  // 4 < MinPts: everything demotes
  EXPECT_EQ(eng.num_core(), 0u);
  EXPECT_EQ(eng.result().num_noise(), 4u);
  expect_matches_batch(eng, 1, "coincident below MinPts");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, EraseSemantics) {
  const DbscanParams prm{1.0, 2};
  IncrementalMuDbscan eng(1, prm);
  const double pt[1] = {0.0};
  const PointId id = eng.insert(pt);
  EXPECT_FALSE(eng.erase(999));  // never allocated
  EXPECT_TRUE(eng.erase(id));
  EXPECT_FALSE(eng.erase(id));  // already erased
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(eng.total(), 1u);
  EXPECT_FALSE(eng.alive(id));
  EXPECT_TRUE(eng.result().label.empty());
  // The structure stays usable after draining to empty.
  const PointId id2 = eng.insert(pt);
  EXPECT_TRUE(eng.alive(id2));
  EXPECT_EQ(eng.size(), 1u);
}

TEST(Incremental, EmptyEngine) {
  IncrementalMuDbscan eng(2, {1.0, 5});
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(eng.num_mcs(), 0u);
  EXPECT_TRUE(eng.result().label.empty());
  EXPECT_TRUE(eng.survivors().empty_points());
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, RejectsBadParametersAndDimensions) {
  EXPECT_THROW(IncrementalMuDbscan(0, {1.0, 5}), std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(2, {0.0, 5}), std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(2, {1.0, 0}), std::invalid_argument);
  IncrementalMuDbscan eng(2, {1.0, 5});
  EXPECT_THROW(eng.insert(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(eng.erase_equal(std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(Incremental, BlastRadiusCapFallsBackAndStaysExact) {
  // A cap of 1 candidate MC per update is below what any interesting update
  // needs, so the engine must fall back to the global relabel — and remain
  // exact while doing so.
  IncrementalMuDbscan::Config cfg;
  cfg.max_touched_mcs_per_update = 1;
  const DbscanParams prm{1.2, 4};
  IncrementalMuDbscan eng(2, prm, cfg);
  Rng rng(47);
  std::vector<PointId> ids;
  for (int op = 0; op < 160; ++op) {
    const bool do_erase = !ids.empty() && rng.next_double() < 0.3;
    if (do_erase) {
      const std::size_t k = rng.uniform_index(ids.size());
      ASSERT_TRUE(eng.erase(ids[k]));
      ids[k] = ids.back();
      ids.pop_back();
    } else {
      const double pt[2] = {attractor_coord(rng), attractor_coord(rng)};
      ids.push_back(eng.insert(pt));
    }
  }
  EXPECT_GT(eng.stats().full_fallbacks, 0u);
  expect_matches_batch(eng, 2, "capped churn");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, MetricsFlowToRegistry) {
  obs::MetricsRegistry reg;
  IncrementalMuDbscan::Config cfg;
  cfg.metrics = &reg;
  const DbscanParams prm{1.0, 3};
  IncrementalMuDbscan eng(2, prm, cfg);
  Rng rng(5);
  std::vector<PointId> ids;
  for (int i = 0; i < 40; ++i) {
    const double pt[2] = {rng.normal(), rng.normal()};
    ids.push_back(eng.insert(pt));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(eng.erase(ids.back()));
    ids.pop_back();
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kIncMcsTouched),
            eng.stats().mcs_touched);
  EXPECT_EQ(snap.counter(obs::Counter::kIncGraphEdgesRepaired),
            eng.stats().graph_edges_repaired);
  EXPECT_EQ(snap.counter(obs::Counter::kIncFullFallbacks),
            eng.stats().full_fallbacks);
  EXPECT_GT(snap.counter(obs::Counter::kIncMcsTouched), 0u);
  EXPECT_GT(snap.counter(obs::Counter::kIncGraphEdgesRepaired), 0u);
  // One blast-radius observation per update.
  EXPECT_EQ(snap.hist(obs::Hist::kIncBlastRadius).count, 50u);
}

// ---------------------------------------------------------------------------
// Split detection (docs/INCREMENTAL.md §Delete): adversarial erasures, each
// checked against the canonical batch answer and the brute-force audit.
// ---------------------------------------------------------------------------

std::vector<PointId> insert_all(IncrementalMuDbscan& eng,
                                const std::vector<std::vector<double>>& pts) {
  std::vector<PointId> ids;
  for (const std::vector<double>& p : pts) ids.push_back(eng.insert(p));
  return ids;
}

void expect_exact(const IncrementalMuDbscan& eng, const std::string& ctx) {
  expect_matches_batch(eng, 1, ctx);
  ASSERT_NO_THROW(eng.check_invariants()) << ctx;
}

TEST(IncrementalSplit, SeedsExactlyEpsApartAreNotAdjacent) {
  // Erasing x leaves two cores a=(0,0) and b=(3,4) at distance exactly
  // eps = 5 (squared 25, exact in binary) and no other path between their
  // sides. A seed certificate that accepted d == eps would keep one cluster.
  const DbscanParams prm{5.0, 3};
  IncrementalMuDbscan eng(2, prm);
  const std::vector<PointId> ids = insert_all(
      eng, {{0, 0}, {-1, 0}, {0, -1}, {3, 4}, {4, 4}, {3, 5}, {1.5, 2}});
  EXPECT_EQ(eng.result().num_clusters(), 1u);
  const std::uint64_t repairs = eng.stats().graph_edges_repaired;
  ASSERT_TRUE(eng.erase(ids[6]));
  EXPECT_EQ(eng.result().num_clusters(), 2u);
  EXPECT_EQ(eng.num_core(), 6u);
  EXPECT_EQ(eng.stats().graph_edges_repaired, repairs + 3);  // one side
  expect_exact(eng, "exact-eps seeds");

  // The same in 1-D, where the seeds' sides are chains.
  IncrementalMuDbscan line(1, {1.0, 3});
  const std::vector<PointId> lids = insert_all(
      line, {{-0.5}, {-0.25}, {0.0}, {1.0}, {1.25}, {1.5}, {0.5}});
  EXPECT_EQ(line.result().num_clusters(), 1u);
  ASSERT_TRUE(line.erase(lids[6]));
  EXPECT_EQ(line.result().num_clusters(), 2u);
  expect_exact(line, "exact-eps seeds, 1-D");
}

// Three arms of `lens` points spaced 0.4 (eps = 1, MinPts = 3) leaving a hub
// at the origin 0.6 from each arm's first point; arm starts are 0.6*sqrt(3)
// > eps apart, so the hub is the only link. Returns the hub's id.
PointId build_star(IncrementalMuDbscan& eng, const std::size_t (&lens)[3]) {
  const double dirs[3][2] = {{0.0, 1.0}, {-0.8660254037844386, -0.5},
                             {0.8660254037844386, -0.5}};
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t k = 0; k < lens[a]; ++k) {
      const double r = 0.6 + 0.4 * static_cast<double>(k);
      const double pt[2] = {r * dirs[a][0], r * dirs[a][1]};
      (void)eng.insert(pt);
    }
  const double hub[2] = {0.0, 0.0};
  return eng.insert(hub);
}

TEST(IncrementalSplit, ThreeWaySplit) {
  const DbscanParams prm{1.0, 3};
  const std::size_t kShapes[][3] = {{4, 9, 25}, {25, 9, 4}, {7, 7, 7}};
  for (const auto& lens : kShapes) {
    IncrementalMuDbscan eng(2, prm);
    const PointId hub = build_star(eng, lens);
    const std::string ctx = "arms " + std::to_string(lens[0]) + "/" +
                            std::to_string(lens[1]) + "/" +
                            std::to_string(lens[2]);
    EXPECT_EQ(eng.result().num_clusters(), 1u) << ctx;
    ASSERT_TRUE(eng.erase(hub));
    EXPECT_EQ(eng.result().num_clusters(), 3u) << ctx;
    expect_exact(eng, ctx);
    // Regrowing the hub merges the three again.
    const double at[2] = {0.0, 0.0};
    (void)eng.insert(at);
    EXPECT_EQ(eng.result().num_clusters(), 1u) << ctx;
    expect_exact(eng, ctx + " regrown");
  }
}

// A dense side x side lattice (spacing 0.3, side >= 21) joined through a
// 0.5-spaced bridge along y = 6 to a 4x4 lattice; built for eps = 1,
// MinPts = 3. Returns the id of the bridge's middle point.
PointId build_dumbbell(IncrementalMuDbscan& eng, int side) {
  for (int i = 0; i < side; ++i)
    for (int j = 0; j < side; ++j) {
      const double pt[2] = {0.3 * i, 0.3 * j};
      (void)eng.insert(pt);
    }
  const double x0 = 0.3 * (side - 1);
  PointId mid = kInvalidPoint;
  for (int k = 1; k <= 9; ++k) {
    const double pt[2] = {x0 + 0.5 * k, 6.0};
    const PointId id = eng.insert(pt);
    if (k == 5) mid = id;
  }
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const double pt[2] = {x0 + 5.3 + 0.3 * i, 5.55 + 0.3 * j};
      (void)eng.insert(pt);
    }
  return mid;
}

TEST(IncrementalSplit, DumbbellSmallSideExhaustsFirst) {
  // Bridge points have two neighbours each (0.5 away; 1.0 is not < eps),
  // so with MinPts = 3 they are cores; erasing the middle one demotes its
  // two bridge neighbours and splits the dumbbell. The small side closes
  // first; the big side keeps the old label and must not be walked: the
  // split costs far fewer MC scans than one query per big-side core.
  const DbscanParams prm{1.0, 3};
  IncrementalMuDbscan eng(2, prm);
  const PointId mid = build_dumbbell(eng, 40);
  const std::size_t big_cores = 40 * 40;
  EXPECT_EQ(eng.result().num_clusters(), 1u);
  const std::uint64_t touched = eng.stats().mcs_touched;
  const std::uint64_t repairs = eng.stats().graph_edges_repaired;
  ASSERT_TRUE(eng.erase(mid));
  EXPECT_EQ(eng.result().num_clusters(), 2u);
  // Relabel writes: the small lattice plus the 3 bridge cores left on its
  // side.
  EXPECT_EQ(eng.stats().graph_edges_repaired - repairs, 16u + 3u);
  EXPECT_LT(eng.stats().mcs_touched - touched, big_cores / 4);
  expect_exact(eng, "dumbbell");
}

TEST(IncrementalSplit, FailuresInTwoClustersSplitBoth) {
  // eps = 1, MinPts = 4. A border point x = (0, 0) is the fourth neighbour
  // of a = (-0.9, 0) and of b = (0.9, 0), the bridges of two separate
  // clusters, each joining a vertical chain above to one below (chain
  // points at y = +-0.6, +-1.0, ..., +-3.0; the chains' ends are 1.2 apart).
  // Erasing x (not a core) demotes a and b: the failed set spans two
  // clusters, and both split.
  const DbscanParams prm{1.0, 4};
  IncrementalMuDbscan eng(2, prm);
  for (const double cx : {-0.9, 0.9}) {
    for (int k = 0; k < 7; ++k) {
      const double y = 0.6 + 0.4 * k;
      (void)eng.insert(std::vector{cx, y});
      (void)eng.insert(std::vector{cx, -y});
    }
    (void)eng.insert(std::vector{cx, 0.0});
  }
  const PointId x = eng.insert(std::vector{0.0, 0.0});
  EXPECT_EQ(eng.result().num_clusters(), 2u);
  const std::size_t cores = eng.num_core();
  ASSERT_TRUE(eng.erase(x));
  EXPECT_EQ(eng.num_core(), cores - 2);
  EXPECT_EQ(eng.result().num_clusters(), 4u);
  expect_exact(eng, "two clusters split by one erase");
}

TEST(IncrementalSplit, SignedZeroTwinsAndDuplicateSeeds) {
  // 1-D, eps = 0.6, MinPts = 3. Erasing x = 0.5 leaves the -0.0/+0.0 twins
  // and the duplicated 1.0 as seeds on either side: each pair is one group
  // (distance 0), the two groups are 0.5 + 0.5 apart through x only.
  const DbscanParams prm{0.6, 3};
  IncrementalMuDbscan eng(1, prm);
  const std::vector<PointId> ids =
      insert_all(eng, {{-1.5}, {-1.0}, {-1.0}, {-0.5}, {-0.5}, {-0.0}, {0.0},
                       {1.0}, {1.0}, {1.5}, {0.5}});
  EXPECT_EQ(eng.result().num_clusters(), 1u);
  ASSERT_TRUE(eng.erase(ids[10]));
  EXPECT_EQ(eng.result().num_clusters(), 2u);
  expect_exact(eng, "twins split");
  // Bitwise erasure keeps the twins apart: -0.0 takes only id 5.
  const double neg_zero[1] = {-0.0};
  EXPECT_EQ(eng.erase_equal(neg_zero), ids[5]);
  EXPECT_EQ(eng.erase_equal(neg_zero), kInvalidPoint);
  expect_exact(eng, "after erasing -0.0");
  const double one[1] = {1.0};
  EXPECT_EQ(eng.erase_equal(one), ids[7]);
  EXPECT_EQ(eng.erase_equal(one), ids[8]);
  expect_exact(eng, "after erasing both 1.0");

  // Duplicates of the erased core itself: every seed sits at distance 0,
  // Round 0 certifies, nothing is relabeled.
  IncrementalMuDbscan dup(2, {1.0, 3});
  std::vector<PointId> dids;
  for (int i = 0; i < 6; ++i) dids.push_back(dup.insert(std::vector{2.0, 2.0}));
  const std::uint64_t repairs = dup.stats().graph_edges_repaired;
  const std::uint64_t touched = dup.stats().mcs_touched;
  ASSERT_TRUE(dup.erase(dids[2]));
  EXPECT_EQ(dup.stats().graph_edges_repaired, repairs);
  EXPECT_EQ(dup.stats().mcs_touched - touched, 1u);  // N(x) only
  expect_exact(dup, "duplicate seeds");
}

TEST(IncrementalSplit, EveryCapFallsBackExactly) {
  // Sweep the blast-radius cap from 1 upward over the dumbbell split: small
  // caps trip before the walk, middling ones inside Round 1, large ones not
  // at all. Every outcome must be the exact answer. A fallback's erase
  // records the MCs touched when it gave up: the same for every cap that
  // trips before the walk, more for one that trips inside it.
  std::vector<std::uint64_t> tripped_at;
  for (std::size_t cap = 1; cap <= 256; cap *= 2) {
    IncrementalMuDbscan::Config cfg;
    cfg.max_touched_mcs_per_update = cap;
    IncrementalMuDbscan eng(2, {1.0, 3}, cfg);
    const PointId mid = build_dumbbell(eng, 21);
    const std::uint64_t before = eng.stats().full_fallbacks;
    const std::uint64_t touched = eng.stats().mcs_touched;
    ASSERT_TRUE(eng.erase(mid));
    if (eng.stats().full_fallbacks > before)
      tripped_at.push_back(eng.stats().mcs_touched - touched);
    EXPECT_EQ(eng.result().num_clusters(), 2u) << "cap " << cap;
    expect_exact(eng, "cap " + std::to_string(cap));
  }
  ASSERT_FALSE(tripped_at.empty());
  EXPECT_GT(*std::max_element(tripped_at.begin(), tripped_at.end()),
            *std::min_element(tripped_at.begin(), tripped_at.end()))
      << "no cap tripped inside the split walk";

  IncrementalMuDbscan::Config cfg;
  cfg.max_touched_mcs_per_update = 1;
  IncrementalMuDbscan star(2, {1.0, 3}, cfg);
  const std::size_t lens[3] = {5, 6, 7};
  const PointId hub = build_star(star, lens);
  const std::uint64_t before = star.stats().full_fallbacks;
  ASSERT_TRUE(star.erase(hub));
  EXPECT_EQ(star.stats().full_fallbacks, before + 1);
  EXPECT_EQ(star.result().num_clusters(), 3u);
  expect_exact(star, "cap 1 star");
}

TEST(IncrementalSplit, MatchesBatchAfterEveryEraseOnFilaments) {
  // Thin random filaments split on most core erasures: audit every step.
  const DbscanParams prm{0.5, 3};
  Rng rng(101);
  IncrementalMuDbscan eng(2, prm);
  std::vector<PointId> ids;
  for (int f = 0; f < 4; ++f) {
    const double y = 3.0 * f;
    for (int k = 0; k < 40; ++k) {
      const double pt[2] = {0.3 * k + 0.1 * rng.normal(),
                            y + 0.05 * rng.normal()};
      ids.push_back(eng.insert(pt));
    }
  }
  const std::uint64_t repairs = eng.stats().graph_edges_repaired;
  for (int step = 0; step < 60; ++step) {
    const std::size_t j = rng.uniform_index(ids.size());
    ASSERT_TRUE(eng.erase(ids[j]));
    ids[j] = ids.back();
    ids.pop_back();
    expect_exact(eng, "filament erase " + std::to_string(step));
  }
  EXPECT_GT(eng.stats().graph_edges_repaired, repairs);  // splits happened
}

TEST(IncrementalCost, NonSplittingDeleteCostsAboutOneInsert) {
  // A core erased at the centre of a 5000-point blob splits nothing. Its
  // seeds all lie within eps of it, so Round 0 certifies the survivors
  // without a range query: the erase scans about the MCs an insert at the
  // same spot scans, not the blob.
  const Dataset ds = gen_blobs(5000, 2, 1, 10.0, 1.0, 0.0, 11);
  const DbscanParams prm{0.5, 5};
  IncrementalMuDbscan eng(2, prm);
  for (std::size_t i = 0; i < ds.size(); ++i)
    (void)eng.insert(ds.point(static_cast<PointId>(i)));
  ASSERT_EQ(eng.result().num_clusters(), 1u);
  double mean[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < ds.size(); ++i)
    for (int d = 0; d < 2; ++d) mean[d] += ds.coord(i, d) / 5000.0;
  PointId centre = 0;
  double best = 1e300;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const double dx = ds.coord(i, 0) - mean[0];
    const double dy = ds.coord(i, 1) - mean[1];
    if (dx * dx + dy * dy < best) {
      best = dx * dx + dy * dy;
      centre = static_cast<PointId>(i);
    }
  }
  std::uint64_t t0 = eng.stats().mcs_touched;
  (void)eng.insert(ds.point(centre));
  const std::uint64_t insert_cost = eng.stats().mcs_touched - t0;
  t0 = eng.stats().mcs_touched;
  const std::uint64_t repairs = eng.stats().graph_edges_repaired;
  ASSERT_TRUE(eng.erase(centre));
  const std::uint64_t erase_cost = eng.stats().mcs_touched - t0;
  EXPECT_GT(insert_cost, 0u);
  EXPECT_LE(erase_cost, 2 * insert_cost)
      << "insert " << insert_cost << " MCs, erase " << erase_cost;
  EXPECT_EQ(eng.stats().graph_edges_repaired, repairs);
  expect_matches_batch(eng, 1, "blob centre erase");
}

// ---------------------------------------------------------------------------
// Neighbour scan (docs/INCREMENTAL.md §Neighbour scan): every SIMD target
// must replay a stream to the same answer and the same work counters as the
// scalar target, and both must equal the canonical batch fit.
// ---------------------------------------------------------------------------

struct TargetGuard {
  SimdTarget prev = active_simd_target();
  ~TargetGuard() { force_simd_target(prev); }
};

// An update stream over `pts`: op >= 0 inserts pts[op]; op < 0 erases id
// -(op + 1), always an alive one.
struct Stream {
  std::string name;
  std::size_t dim;
  DbscanParams prm;
  std::vector<std::vector<double>> pts;
  std::vector<std::int64_t> ops;
};

// Inserts every point of `pts` in order, erasing a random alive id instead
// on about a third of the steps.
std::vector<std::int64_t> churn_ops(std::size_t npts, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> ops;
  std::vector<std::int64_t> alive;
  std::int64_t next_id = 0;
  for (std::size_t row = 0; row < npts;) {
    if (!alive.empty() && rng.next_double() < 0.3) {
      const std::size_t k = rng.uniform_index(alive.size());
      ops.push_back(-(alive[k] + 1));
      alive[k] = alive.back();
      alive.pop_back();
    } else {
      ops.push_back(static_cast<std::int64_t>(row++));
      alive.push_back(next_id++);
    }
  }
  return ops;
}

std::vector<Stream> adversarial_streams() {
  std::vector<Stream> out;
  Rng rng(907);
  auto pick = [&rng](std::size_t n) {
    return static_cast<double>(rng.uniform_index(n));
  };
  auto add = [&](std::string name, std::size_t dim, DbscanParams prm,
                 std::vector<std::vector<double>> pts, std::uint64_t seed) {
    std::vector<std::int64_t> ops = churn_ops(pts.size(), seed);
    out.push_back({std::move(name), dim, prm, std::move(pts), std::move(ops)});
  };
  std::vector<std::vector<double>> pts;
  // 2-D, eps = 5: repeated sites (3i, 4j) with i + j even, so the nearest
  // other site is a diagonal one exactly eps away (3-4-5) and not a
  // neighbour; one point in ten is a cell centre, 2.5 from two sites, that
  // bridges them.
  for (int i = 0; i < 260; ++i) {
    const double a = pick(6), b = 2.0 * pick(3) + std::fmod(a, 2.0);
    const double off = rng.uniform_index(10) == 0 ? 1.0 : 0.0;
    pts.push_back({3.0 * a + 1.5 * off, 4.0 * b + 2.0 * off});
  }
  add("3-4-5 lattice", 2, {5.0, 4}, std::move(pts), 1);
  // 1-D, eps = 0.5: sites exactly eps apart with signed-zero twins at the
  // origin; one point in forty sits halfway and bridges two sites.
  pts.clear();
  for (int i = 0; i < 240; ++i) {
    double v = 0.5 * pick(7) - 1.5;
    if (v == 0.0 && rng.uniform_index(2) == 0) v = -0.0;
    if (rng.uniform_index(40) == 0) v += 0.25;
    pts.push_back({v});
  }
  add("signed zeros", 1, {0.5, 3}, std::move(pts), 2);
  // 2-D denormals: eps^2 and most squared distances are subnormal.
  pts.clear();
  for (int i = 0; i < 240; ++i)
    pts.push_back({1e-160 * pick(25), 1e-160 * pick(25)});
  add("denormals", 2, {2.5e-160, 4}, std::move(pts), 3);
  // 3-D around 0 and +-1e300: a squared distance across the far clusters
  // overflows to inf; adding a small offset to 1e300 rounds back to it.
  pts.clear();
  const double kFar[] = {0.0, 1e300, -1e300, 1.5e300};
  for (int i = 0; i < 240; ++i) {
    std::vector<double> p(3);
    for (double& c : p) c = kFar[rng.uniform_index(4)] + 0.5 * pick(4);
    pts.push_back(std::move(p));
  }
  add("overflow to inf", 3, {1.0, 3}, std::move(pts), 4);
  // 14-D: blobs rounded to half steps, eps = 2 (sums of squares of half
  // steps are exact, so eps ties occur).
  pts.clear();
  for (int i = 0; i < 240; ++i) {
    std::vector<double> p(14);
    const double c = 4.0 * pick(2);
    for (double& v : p) v = 0.5 * std::round(2.0 * (c + 0.5 * rng.normal()));
    pts.push_back(std::move(p));
  }
  add("14-D half steps", 14, {2.0, 4}, std::move(pts), 5);
  return out;
}

struct Replayed {
  ClusteringResult result;
  IncrementalMuDbscan::Stats stats;
};

Replayed replay(const Stream& s, const std::string& ctx) {
  IncrementalMuDbscan eng(s.dim, s.prm);
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    const std::int64_t op = s.ops[k];
    if (op >= 0)
      (void)eng.insert(s.pts[static_cast<std::size_t>(op)]);
    else
      EXPECT_TRUE(eng.erase(static_cast<PointId>(-(op + 1)))) << ctx;
    if (k == s.ops.size() / 2) expect_exact(eng, ctx + " midway");
  }
  expect_exact(eng, ctx);
  return {eng.result(), eng.stats()};
}

TEST(IncrementalSimd, EveryTargetReplaysAdversarialStreamsIdentically) {
  TargetGuard guard;
  for (const Stream& s : adversarial_streams()) {
    force_simd_target(SimdTarget::kScalar);
    const Replayed want = replay(s, s.name + " scalar");
    EXPECT_GT(want.stats.mcs_touched, 0u) << s.name;
    for (SimdTarget t : runnable_simd_targets()) {
      if (t == SimdTarget::kScalar) continue;
      force_simd_target(t);
      const std::string ctx = s.name + " " + simd_target_name(t);
      const Replayed got = replay(s, ctx);
      EXPECT_EQ(got.result.label, want.result.label) << ctx;
      EXPECT_EQ(got.result.is_core, want.result.is_core) << ctx;
      EXPECT_EQ(got.stats, want.stats) << ctx;
    }
  }
}

TEST(IncrementalBlock, LifecycleOfOneMicroCluster) {
  // One MC centred at the origin (eps = 1: every point below is strictly
  // within eps of it) through growth, compaction, emptying, revival, a
  // centres rebuild that drops it, and regrowth. check_invariants() audits
  // the block slot by slot after every step.
  IncrementalMuDbscan eng(2, {1.0, 3});
  auto near_origin = [](int i) {
    return std::vector{0.01 * i, 0.005 * i};
  };
  std::vector<PointId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(eng.insert(near_origin(i)));
    const std::size_t n = ids.size();
    if ((n & (n - 1)) == 0 || ((n - 1) & (n - 2)) == 0) {  // 2^k and 2^k + 1
      ASSERT_EQ(eng.num_mcs(), 1u);
      expect_exact(eng, "growth to " + std::to_string(n));
    }
  }
  // Erasing the even slots leaves half alive; one more erasure compacts.
  for (int i = 0; i < 64; i += 2) ASSERT_TRUE(eng.erase(ids[i]));
  ASSERT_TRUE(eng.erase(ids[1]));
  expect_exact(eng, "compacted");
  // Emptying tombstones the MC; the next point within eps revives it.
  for (PointId id : ids) (void)eng.erase(id);
  ASSERT_EQ(eng.size(), 0u);
  ASSERT_EQ(eng.num_mcs(), 0u);
  expect_exact(eng, "emptied");
  ids.clear();
  for (int i = 0; i < 10; ++i) ids.push_back(eng.insert(near_origin(i)));
  ASSERT_EQ(eng.num_mcs(), 1u);
  expect_exact(eng, "revived");
  // 70 singleton MCs far away. Emptying the origin MC and 35 of them makes
  // 36 of 71 centre entries dead, which rebuilds the centres tree over the
  // live ones and drops the origin MC with its block.
  std::vector<PointId> far;
  for (int k = 0; k < 70; ++k)
    far.push_back(eng.insert(std::vector{10.0 + 3.0 * k, 50.0}));
  ASSERT_EQ(eng.num_mcs(), 71u);
  for (PointId id : ids) ASSERT_TRUE(eng.erase(id));
  for (int k = 0; k < 35; ++k) ASSERT_TRUE(eng.erase(far[k]));
  ASSERT_EQ(eng.num_mcs(), 35u);
  expect_exact(eng, "dropped by a centres rebuild");
  // Regrowth at the origin builds a new MC, its block doubling 4 -> 32.
  for (int i = 0; i < 20; ++i) (void)eng.insert(near_origin(i));
  ASSERT_EQ(eng.num_mcs(), 36u);
  expect_exact(eng, "regrown");
}

// ---------------------------------------------------------------------------
// Streaming adapter: erase flows through, caches invalidate, dataset shrinks.
// ---------------------------------------------------------------------------

TEST(StreamingIncremental, EraseInvalidatesCaches) {
  StreamingMuDbscan stream(1, {1.0, 2});
  const double a[1] = {0.0};
  const double b[1] = {0.5};
  const PointId ia = stream.insert(a);
  (void)stream.insert(b);
  EXPECT_EQ(stream.result().num_core(), 2u);
  EXPECT_EQ(stream.dataset().size(), 2u);
  ASSERT_TRUE(stream.erase(ia));
  EXPECT_FALSE(stream.erase(ia));
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream.result().num_noise(), 1u);
  ASSERT_EQ(stream.dataset().size(), 1u);
  EXPECT_EQ(stream.dataset().coord(0, 0), 0.5);
  EXPECT_EQ(stream.erase_equal(b), PointId{1});
  EXPECT_EQ(stream.dataset().size(), 0u);
  EXPECT_TRUE(stream.result().label.empty());
}

TEST(StreamingIncremental, DatasetAppendsAfterEraseFreeGrowth) {
  // dataset() must stay correct through the grow -> erase -> grow pattern
  // (append fast path only when no erase intervened).
  StreamingMuDbscan stream(2, {1.0, 3});
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const double pt[2] = {rng.normal(), rng.normal()};
    (void)stream.insert(pt);
  }
  EXPECT_EQ(stream.dataset().size(), 10u);
  ASSERT_TRUE(stream.erase(0));
  ASSERT_TRUE(stream.erase(7));
  EXPECT_EQ(stream.dataset().size(), 8u);
  for (int i = 0; i < 5; ++i) {
    const double pt[2] = {rng.normal(), rng.normal()};
    (void)stream.insert(pt);
  }
  const Dataset& ds = stream.dataset();
  ASSERT_EQ(ds.size(), 13u);
  // Must equal the engine's own survivor view exactly.
  EXPECT_EQ(ds.raw(), stream.engine().survivors().raw());
  EXPECT_EQ(stream.update_stats().inserts, 15u);
  EXPECT_EQ(stream.update_stats().deletes, 2u);
}

}  // namespace
}  // namespace udb
