#include "core/murtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/distance.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"

namespace udb {
namespace {

TEST(MuRTree, RejectsNonPositiveEps) {
  Dataset ds(2, {0.0, 0.0});
  EXPECT_THROW(MuRTree(ds, 0.0), std::invalid_argument);
}

TEST(MuRTree, EmptyDatasetHasNoMcs) {
  Dataset ds = Dataset::empty(3);
  MuRTree tree(ds, 1.0);
  EXPECT_EQ(tree.num_mcs(), 0u);
}

TEST(MuRTree, SinglePointFormsSingletonMc) {
  Dataset ds(2, {1.0, 2.0});
  MuRTree tree(ds, 1.0);
  ASSERT_EQ(tree.num_mcs(), 1u);
  EXPECT_EQ(tree.mc(0).center, 0u);
  EXPECT_EQ(tree.mc(0).members.size(), 1u);
  EXPECT_EQ(tree.mc_of_point(0), 0u);
}

TEST(MuRTree, MembershipIsStrictlyWithinEpsOfCenter) {
  // Second point exactly eps from the first: cannot join its MC, and (with
  // the 2eps rule) is deferred, then founds its own MC.
  Dataset ds(1, {0.0, 1.0});
  MuRTree tree(ds, 1.0);
  EXPECT_EQ(tree.num_mcs(), 2u);
  // Just inside eps: joins.
  Dataset ds2(1, {0.0, 0.999});
  MuRTree tree2(ds2, 1.0);
  EXPECT_EQ(tree2.num_mcs(), 1u);
  EXPECT_EQ(tree2.mc(0).members.size(), 2u);
}

TEST(MuRTree, InvariantsOnRealisticData) {
  Dataset ds = gen_blobs(2000, 3, 5, 100.0, 3.0, 0.15, 3);
  MuRTree tree(ds, 2.0);
  tree.check_invariants();
  EXPECT_GT(tree.num_mcs(), 0u);
  EXPECT_LT(tree.num_mcs(), ds.size());
}

TEST(MuRTree, TwoEpsRuleLimitsMcCount) {
  Dataset ds = gen_blobs(3000, 3, 5, 100.0, 3.0, 0.15, 4);
  MuRTree with_rule(ds, 2.0);
  MuRTree::Config cfg;
  cfg.two_eps_rule = false;
  MuRTree without(ds, 2.0, cfg);
  with_rule.check_invariants();
  without.check_invariants();
  // The deferral rule exists to limit the MC count (Section IV-B1). It is a
  // heuristic: on some data it wins big, on some it breaks even or loses a
  // percent or two (a deferred point re-inserted later can found an MC that
  // immediate creation would have shared). Assert the weak guarantee.
  EXPECT_LT(static_cast<double>(with_rule.num_mcs()),
            static_cast<double>(without.num_mcs()) * 1.15);
  EXPECT_GT(with_rule.deferred_points(), 0u);
  EXPECT_EQ(without.deferred_points(), 0u);
}

TEST(MuRTree, InnerCircleCountsAreStrictHalfEps) {
  // Centre at 0; members at 0.49 (inside IC), 0.5 (exactly eps/2 — excluded
  // by the strict rule), 0.9 (outside IC).
  Dataset ds(1, {0.0, 0.49, 0.5, 0.9});
  MuRTree tree(ds, 1.0);
  tree.compute_inner_circles();
  ASSERT_EQ(tree.num_mcs(), 1u);
  EXPECT_EQ(tree.mc(0).ic_count, 1u);
}

TEST(MuRTree, ReachableListsIncludeSelf) {
  Dataset ds = gen_blobs(500, 2, 3, 50.0, 2.0, 0.1, 5);
  MuRTree tree(ds, 2.0);
  tree.compute_reachable();
  for (McId z = 0; z < tree.num_mcs(); ++z) {
    const auto& reach = tree.mc(z).reach;
    EXPECT_NE(std::find(reach.begin(), reach.end(), z), reach.end());
  }
}

TEST(MuRTree, ReachableListsMatchBruteForce3Eps) {
  Dataset ds = gen_blobs(800, 3, 4, 60.0, 3.0, 0.2, 6);
  const double eps = 2.0;
  MuRTree tree(ds, eps);
  tree.compute_reachable();
  const double r2 = 9.0 * eps * eps;
  for (McId z = 0; z < tree.num_mcs(); ++z) {
    std::vector<McId> want;
    const double* cz = ds.ptr(tree.mc(z).center);
    for (McId o = 0; o < tree.num_mcs(); ++o) {
      if (sq_dist(cz, ds.ptr(tree.mc(o).center), ds.dim()) <= r2)
        want.push_back(o);
    }
    std::vector<McId> got = tree.mc(z).reach;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "MC " << z;
  }
}

TEST(MuRTree, NeighborhoodQueryMatchesLinearScan) {
  Dataset ds = gen_galaxy(1500, GalaxyConfig{}, 7);
  const double eps = 1.5;
  MuRTree tree(ds, eps);
  tree.compute_reachable();
  const double eps2 = eps * eps;
  for (PointId p = 0; p < ds.size(); p += 37) {
    std::vector<std::pair<PointId, double>> got;
    tree.query_neighborhood(p, eps, got);
    std::vector<PointId> got_ids;
    for (const auto& [id, d2] : got) {
      got_ids.push_back(id);
      EXPECT_LT(d2, eps2);
      EXPECT_NEAR(d2, sq_dist(ds.ptr(p), ds.ptr(id), ds.dim()), 1e-12);
    }
    std::vector<PointId> want;
    for (PointId q = 0; q < ds.size(); ++q)
      if (sq_dist(ds.ptr(p), ds.ptr(q), ds.dim()) < eps2) want.push_back(q);
    std::sort(got_ids.begin(), got_ids.end());
    EXPECT_EQ(got_ids, want) << "point " << p;
  }
}

TEST(MuRTree, DuplicateHeavyDataset) {
  std::vector<double> coords;
  for (int i = 0; i < 200; ++i) {
    coords.push_back(static_cast<double>(i % 4));
    coords.push_back(0.0);
  }
  Dataset ds(2, std::move(coords));
  MuRTree tree(ds, 0.5);
  tree.check_invariants();
  EXPECT_EQ(tree.num_mcs(), 4u);
}

TEST(MuRTree, MbrFiltrationSkipsUnreachableAuxTrees) {
  // The Section IV-B2 filtration: of an MC's reachable list, only the MCs
  // whose aux MBR intersects the query ball are searched. Querying every
  // point must touch strictly fewer aux trees than the sum of reach-list
  // lengths on spread-out data.
  Dataset ds = gen_blobs(1500, 2, 6, 80.0, 2.0, 0.1, 21);
  MuRTree tree(ds, 1.5);
  tree.compute_reachable();
  std::uint64_t reach_total = 0;
  for (McId z = 0; z < tree.num_mcs(); ++z)
    reach_total += tree.mc(z).reach.size();
  std::vector<std::pair<PointId, double>> out;
  for (PointId p = 0; p < ds.size(); p += 3) {
    out.clear();
    tree.query_neighborhood(p, 1.5, out);
  }
  // Average searched per query must be below the average reach-list length.
  const double queries = static_cast<double>(ds.size()) / 3.0;
  const double avg_searched =
      static_cast<double>(tree.aux_trees_searched()) / queries;
  const double avg_reach =
      static_cast<double>(reach_total) / static_cast<double>(tree.num_mcs());
  EXPECT_LT(avg_searched, avg_reach);
}

TEST(MuRTree, AuxTreesSearchedCounterAdvances) {
  Dataset ds = gen_blobs(600, 2, 3, 40.0, 2.0, 0.1, 8);
  MuRTree tree(ds, 1.5);
  tree.compute_reachable();
  std::vector<std::pair<PointId, double>> out;
  tree.query_neighborhood(0, 1.5, out);
  EXPECT_GT(tree.aux_trees_searched(), 0u);
}

// ---------------------------------------------------------------------------
// Level-1 centre grid (d <= MuRTree::kLevel1GridMaxDim): differential tests
// against brute-force references built from the same existence tests.

// Brute-force Algorithm 3 with the grid's documented join rule: among the
// centres strictly within eps, the point joins the one in the earliest cell
// offset (home cell first, then {-1,0,1}^d lexicographically, cells of side
// 3*eps*(1 + 2^-10)), then the earliest founded.
struct Alg3Ref {
  std::vector<PointId> founders;              // centre of MC z, by MC id
  std::vector<std::vector<PointId>> members;  // per MC, in join order
  std::size_t deferred = 0;
};

int offset_rank(const double* p, const double* c, std::size_t dim,
                double side) {
  int rank = 0;
  bool home = true;
  for (std::size_t k = 0; k < dim; ++k) {
    const double o = std::floor(c[k] / side) - std::floor(p[k] / side);
    home = home && o == 0.0;
    rank = rank * 3 + static_cast<int>(o + 1.0);
  }
  return home ? -1 : rank;
}

Alg3Ref brute_alg3(const Dataset& ds, double eps) {
  const double side = 3.0 * eps * (1.0 + 0x1p-10);
  const double eps2 = eps * eps;
  const double two_eps = 2.0 * eps;
  const double two_eps2 = two_eps * two_eps;
  Alg3Ref ref;
  auto probe = [&](PointId p, bool& near) {
    McId best = kInvalidMc;
    int best_rank = 0;
    near = false;
    for (McId z = 0; z < ref.founders.size(); ++z) {
      const double* c = ds.ptr(ref.founders[z]);
      const double d2 = sq_dist(ds.ptr(p), c, ds.dim());
      near = near || d2 < two_eps2;
      if (!(d2 < eps2)) continue;
      const int rank = offset_rank(ds.ptr(p), c, ds.dim(), side);
      if (best == kInvalidMc || rank < best_rank) {
        best = z;
        best_rank = rank;
      }
    }
    return best;
  };
  auto found = [&](PointId p) {
    ref.founders.push_back(p);
    ref.members.push_back({p});
  };
  std::vector<PointId> unassigned;
  for (PointId p = 0; p < ds.size(); ++p) {
    bool near = false;
    const McId hit = probe(p, near);
    if (hit != kInvalidMc)
      ref.members[hit].push_back(p);
    else if (near)
      unassigned.push_back(p);
    else
      found(p);
  }
  ref.deferred = unassigned.size();
  for (PointId p : unassigned) {
    bool near = false;
    const McId hit = probe(p, near);
    if (hit != kInvalidMc)
      ref.members[hit].push_back(p);
    else
      found(p);
  }
  return ref;
}

// Every member within `radius` of q, by linear scan (strict, like the
// AuxR-tree search).
std::vector<PointId> linear_neighbors(const Dataset& ds,
                                      std::span<const double> q,
                                      double radius) {
  const double r2 = radius * radius;
  std::vector<PointId> out;
  for (PointId p = 0; p < ds.size(); ++p)
    if (sq_dist(q.data(), ds.ptr(p), ds.dim()) < r2) out.push_back(p);
  return out;
}

std::vector<PointId> tree_neighbors(const MuRTree& tree,
                                    std::span<const double> q, double radius) {
  std::vector<std::pair<PointId, double>> got;
  tree.query_neighborhood(q, radius, got);
  std::vector<PointId> ids;
  for (const auto& hit : got) ids.push_back(hit.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Full differential check of one dataset: founders, deferred count and (in
// the grid regime) each MC's member sequence against brute_alg3. Members
// are appended as points are processed, so a point deferred where the
// reference joined it in pass 1 (or the reverse) shows up as a reordered
// or moved member; reach lists against a
// brute 3*eps scan; by-id and coordinate neighborhoods against linear scans,
// including queries far outside the data and radii wider than one cell.
void check_level1_differential(const Dataset& ds, double eps,
                               bool expect_grid, const std::string& what) {
  SCOPED_TRACE(what + " d=" + std::to_string(ds.dim()));
  MuRTree tree(ds, eps);
  ASSERT_EQ(tree.level1_is_grid(), expect_grid);
  tree.check_invariants();
  tree.compute_reachable();

  const Alg3Ref ref = brute_alg3(ds, eps);
  ASSERT_EQ(tree.num_mcs(), ref.founders.size());
  EXPECT_EQ(tree.deferred_points(), ref.deferred);
  for (McId z = 0; z < tree.num_mcs(); ++z)
    ASSERT_EQ(tree.mc(z).center, ref.founders[z]) << "MC " << z;
  if (expect_grid) {
    for (McId z = 0; z < tree.num_mcs(); ++z)
      ASSERT_EQ(tree.mc(z).members, ref.members[z]) << "MC " << z;
  }

  const double reach_r = 3.0 * eps;
  const double reach_r2 = reach_r * reach_r;
  for (McId z = 0; z < tree.num_mcs(); ++z) {
    std::vector<McId> want;
    for (McId o = 0; o < tree.num_mcs(); ++o)
      if (sq_dist(ds.ptr(tree.mc(z).center), ds.ptr(tree.mc(o).center),
                  ds.dim()) <= reach_r2)
        want.push_back(o);
    std::vector<McId> got = tree.mc(z).reach;
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "reach list of MC " << z;
  }

  for (PointId p = 0; p < ds.size(); ++p) {
    std::vector<std::pair<PointId, double>> got;
    tree.query_neighborhood(p, eps, got);
    std::vector<PointId> ids;
    for (const auto& hit : got) ids.push_back(hit.first);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids, linear_neighbors(ds, ds.point(p), eps)) << "point " << p;
  }

  // Coordinate queries: at, beside and far from the data, with radii inside
  // one cell (eps, 2*eps), a few cells wide, and wider than the data.
  std::vector<std::vector<double>> queries;
  for (PointId p = 0; p < ds.size(); p += 7) {
    std::vector<double> q(ds.point(p).begin(), ds.point(p).end());
    queries.push_back(q);
    q[0] += eps;
    queries.push_back(q);
  }
  for (double far : {-1e6, 1e9, 1e18, -1e250, 1e300})
    queries.push_back(std::vector<double>(ds.dim(), far));
  for (const auto& q : queries)
    for (double radius : {eps, 2.0 * eps, 5.0 * eps, 1e7})
      ASSERT_EQ(tree_neighbors(tree, q, radius),
                linear_neighbors(ds, q, radius))
          << "query " << q[0] << " radius " << radius;
}

// The adversarial inputs, for dimension d.
std::vector<std::pair<std::string, Dataset>> adversarial_inputs(std::size_t d,
                                                                double eps) {
  std::vector<std::pair<std::string, Dataset>> out;
  const double side = 3.0 * eps * (1.0 + 0x1p-10);
  auto add = [&](const std::string& name, std::vector<double> coords) {
    out.emplace_back(name, Dataset(d, std::move(coords)));
  };
  // Points at exact multiples of the cell side (and of 3*eps and eps), each
  // also one ulp to either side of the boundary.
  {
    std::vector<double> c;
    const double inf = std::numeric_limits<double>::infinity();
    for (int i = -6; i <= 6; ++i)
      for (double unit : {side, 3.0 * eps, eps})
        for (double to : {0.0, -inf, inf}) {
          const double x = i * unit;
          const double nudged = to == 0.0 ? x : std::nextafter(x, to);
          for (std::size_t k = 0; k < d; ++k) c.push_back(k == 0 ? nudged : x);
        }
    add("cell-side multiples", std::move(c));
  }
  // Pairs at exactly eps, 2*eps and 3*eps (eps = 1: exact arithmetic), on
  // the axes and along the diagonal.
  {
    std::vector<double> c;
    for (double gap : {1.0, 2.0, 3.0})
      for (std::size_t axis = 0; axis < d; ++axis)
        for (double base : {-7.0, 0.0, 11.0}) {
          for (std::size_t k = 0; k < d; ++k) c.push_back(base * 10.0 + k);
          for (std::size_t k = 0; k < d; ++k)
            c.push_back(base * 10.0 + k + (k == axis ? gap : 0.0));
        }
    add("pairs at eps, 2eps, 3eps", std::move(c));
  }
  // -0.0 / +0.0 twins around the origin.
  {
    std::vector<double> c;
    for (int i = 0; i < 12; ++i)
      for (std::size_t k = 0; k < d; ++k)
        c.push_back(((i >> k) & 1) ? -0.0 : 0.0);
    add("signed-zero twins", std::move(c));
  }
  // All duplicates.
  add("all duplicates", std::vector<double>(40 * d, 2.5));
  // Negative coordinates: a lattice of step eps/2 entirely below zero.
  {
    std::vector<double> c;
    const int per_axis = d == 1 ? 60 : d == 2 ? 12 : 6;
    std::vector<int> idx(d, 0);
    for (bool more = true; more;) {
      for (std::size_t k = 0; k < d; ++k)
        c.push_back(-1000.0 - idx[k] * (eps / 2.0));
      std::size_t k = 0;
      while (k < d && ++idx[k] == per_axis) idx[k++] = 0;
      more = k < d;
    }
    add("negative lattice", std::move(c));
  }
  // One giant cluster: 300 points inside a ball of radius eps/4.
  {
    Rng rng(17 + d);
    std::vector<double> c;
    for (int i = 0; i < 300 * static_cast<int>(d); ++i)
      c.push_back(5.0 + rng.uniform(-eps / 4.0, eps / 4.0) / std::sqrt(d));
    add("giant cluster", std::move(c));
  }
  // Random blobs: enough MCs that 5^d-cell blocks are probed too.
  out.emplace_back("blobs", gen_blobs(d == 3 ? 1500 : 600, d, 6, 40.0 * eps,
                                      2.0 * eps, 0.2, 31 + d));
  return out;
}

TEST(MuRTreeGrid, DimensionCutoffSelectsTheLevel1Index) {
  for (std::size_t d = 1; d <= MuRTree::kLevel1GridMaxDim + 1; ++d) {
    const Dataset ds = gen_uniform(50, d, -10.0, 10.0, 3);
    MuRTree tree(ds, 1.0);
    EXPECT_EQ(tree.level1_is_grid(), d <= MuRTree::kLevel1GridMaxDim) << d;
    tree.check_invariants();
  }
}

TEST(MuRTreeGrid, MatchesBruteForceOnAdversarialInputs) {
  for (std::size_t d : {1u, 2u, 3u})
    for (double eps : {1.0, 0.1})
      for (const auto& [name, ds] : adversarial_inputs(d, eps))
        check_level1_differential(ds, eps, /*expect_grid=*/true, name);
}

TEST(MuRTreeGrid, JoinRulePrefersCellOrderOverFoundingOrder) {
  // eps = 1, cells of side ~3.003. Z founds MC 0; Cy and p are deferred
  // (within 2*eps of Z); Cx founds MC 1 in pass 1; in pass 2 Cy founds
  // MC 2. p is then strictly within eps of Cx (MC 1, cell (1,0)) and of
  // Cy (MC 2, p's own cell): the home cell comes first, so p joins MC 2
  // although MC 1 was founded earlier — with only three centres, fewer
  // than the 9 cells of the block.
  const Dataset ds(2, {1.0, 0.0,     // Z
                       2.2, 0.9,     // Cy
                       2.6, 0.0,     // p
                       3.5, 0.0});   // Cx
  MuRTree tree(ds, 1.0);
  ASSERT_TRUE(tree.level1_is_grid());
  ASSERT_EQ(tree.num_mcs(), 3u);
  EXPECT_EQ(tree.deferred_points(), 2u);
  EXPECT_EQ(tree.mc(1).center, 3u);
  EXPECT_EQ(tree.mc(2).center, 1u);
  EXPECT_EQ(tree.mc_of_point(2), 2u);
  check_level1_differential(ds, 1.0, /*expect_grid=*/true, "join rule");
}

TEST(MuRTreeGrid, HugeCoordinatesFallBackToRTree) {
  // |x| / eps near 1e300 cannot be a cell index: the data decides the R-tree.
  for (std::size_t d : {1u, 2u, 3u}) {
    std::vector<double> c;
    for (int i = 0; i < 30; ++i)
      for (std::size_t k = 0; k < d; ++k)
        c.push_back((i % 2 ? -1e300 : 1e300) + i * 1e285 + k * 3e285);
    for (int i = 0; i < 20; ++i)
      for (std::size_t k = 0; k < d; ++k) c.push_back(i * 0.7 + k);
    const Dataset ds(d, std::move(c));
    check_level1_differential(ds, 1.0, /*expect_grid=*/false, "huge coords");
    check_level1_differential(ds, 1e285, /*expect_grid=*/false,
                              "huge coords, huge eps");
  }
}

TEST(MuRTreeGrid, HugeServingRadiiScanLinearly) {
  // eps = 1, so one cell reaches 3. A candidate radius of 3 * 2^54 + 40
  // rounds to k = 2^54 + 12 cells, and fl(3 * k) = 3 * 2^54 + 32 falls
  // short of it, while k + 1 rounds back to k: rounding k up by increments
  // would never end. A radius of n cells or more must scan linearly
  // instead. The candidate radius is the query radius plus eps, and
  // 3 * 2^54 + 40 + 1 rounds to itself.
  const double stuck = 3.0 * 0x1p54 + 40.0;
  ASSERT_EQ(stuck + 1.0, stuck);
  const double max = std::numeric_limits<double>::max();
  for (std::size_t d : {1u, 2u, 3u}) {
    const Dataset ds = gen_blobs(300, d, 4, 30.0, 1.5, 0.1, 41 + d);
    MuRTree tree(ds, 1.0);
    ASSERT_TRUE(tree.level1_is_grid());
    for (double radius : {stuck, 0x1p60, 1e150, 1e300, max})
      for (double at : {0.0, -1e6, 1e18}) {
        const std::vector<double> q(d, at);
        ASSERT_EQ(tree_neighbors(tree, q, radius),
                  linear_neighbors(ds, q, radius))
            << "d " << d << " radius " << radius << " at " << at;
      }
  }
}

TEST(MuRTreeGrid, CountersChargeCellProbesAndCentreChecks) {
  const Dataset ds = gen_blobs(2000, 3, 5, 100.0, 3.0, 0.15, 3);
  MuRTree tree(ds, 2.0);
  ASSERT_TRUE(tree.level1_is_grid());
  const MuRTree::IndexCounters built = tree.index_counters();
  // Every probe reads at least the home cell (a join can stop there); each
  // reach list reads exactly the 27-cell block and checks at least itself.
  EXPECT_GE(built.node_visits, ds.size());
  EXPECT_GT(built.distance_evals, 0u);
  tree.compute_reachable();
  const MuRTree::IndexCounters reach = tree.index_counters();
  EXPECT_EQ(reach.node_visits - built.node_visits, 27u * tree.num_mcs());
  EXPECT_GE(reach.distance_evals - built.distance_evals, tree.num_mcs());
}

}  // namespace
}  // namespace udb
