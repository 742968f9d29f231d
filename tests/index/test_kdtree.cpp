#include "index/kdtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/distance.hpp"
#include "data/generators.hpp"

namespace udb {
namespace {

std::vector<PointId> linear_ball(const Dataset& ds,
                                 std::span<const double> center, double r,
                                 bool strict) {
  std::vector<PointId> out;
  const double r2 = r * r;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const double d2 =
        sq_dist(center.data(), ds.ptr(static_cast<PointId>(i)), ds.dim());
    if (strict ? d2 < r2 : d2 <= r2) out.push_back(static_cast<PointId>(i));
  }
  return out;
}

TEST(KdTree, RejectsZeroLeafSize) {
  Dataset ds(1, {0.0});
  KdTree::Config cfg;
  cfg.leaf_size = 0;
  EXPECT_THROW(KdTree(ds, cfg), std::invalid_argument);
}

TEST(KdTree, EmptyDataset) {
  Dataset ds = Dataset::empty(3);
  KdTree tree(ds);
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{0.0, 0.0, 0.0}, 5.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(KdTree, SinglePoint) {
  Dataset ds(2, {1.0, 2.0});
  KdTree tree(ds);
  tree.check_invariants();
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{1.0, 2.0}, 0.1, out);
  EXPECT_EQ(out, (std::vector<PointId>{0}));
}

TEST(KdTree, StrictVsInclusiveBoundary) {
  Dataset ds(1, {0.0, 2.0});
  KdTree tree(ds);
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{0.0}, 2.0, out, /*strict=*/true);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  tree.query_ball(std::vector<double>{0.0}, 2.0, out, /*strict=*/false);
  EXPECT_EQ(out.size(), 2u);
}

TEST(KdTree, VisitEarlyStop) {
  Dataset ds = gen_uniform(200, 2, 0.0, 1.0, 3);
  KdTree tree(ds);
  int seen = 0;
  tree.visit_ball(std::vector<double>{0.5, 0.5}, 2.0,
                  [&seen](PointId, double) {
                    ++seen;
                    return seen < 7;
                  });
  EXPECT_EQ(seen, 7);
}

TEST(KdTree, DuplicatesAllFound) {
  std::vector<double> coords(60, 3.0);  // 30 identical 2-D points
  Dataset ds(2, std::move(coords));
  KdTree tree(ds);
  tree.check_invariants();
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{3.0, 3.0}, 0.01, out);
  EXPECT_EQ(out.size(), 30u);
}

struct KdCase {
  std::size_t n, dim;
  double radius;
  std::uint32_t leaf;
  std::uint64_t seed;
};

// Names the ctest case from the fields (e.g. n300_d2_r3_leaf16_s1) instead of
// a byte dump of the struct, whose padding bytes change from build to build.
void PrintTo(const KdCase& c, std::ostream* os) {
  *os << "n" << c.n << "_d" << c.dim << "_r" << c.radius << "_leaf" << c.leaf
      << "_s" << c.seed;
}

class KdTreeEquivalence : public ::testing::TestWithParam<KdCase> {};

TEST_P(KdTreeEquivalence, MatchesLinearScan) {
  const auto& c = GetParam();
  Dataset ds = gen_blobs(c.n, c.dim, 4, 100.0, 5.0, 0.1, c.seed);
  KdTree::Config cfg;
  cfg.leaf_size = c.leaf;
  KdTree tree(ds, cfg);
  tree.check_invariants();
  for (std::size_t qi = 0; qi < ds.size(); qi += 17) {
    const auto q = ds.point(static_cast<PointId>(qi));
    for (bool strict : {true, false}) {
      std::vector<PointId> got;
      tree.query_ball(q, c.radius, got, strict);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, linear_ball(ds, q, c.radius, strict))
          << "query " << qi << " strict " << strict;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeEquivalence,
    ::testing::Values(KdCase{300, 2, 3.0, 16, 1}, KdCase{400, 3, 5.0, 8, 2},
                      KdCase{400, 5, 10.0, 4, 3}, KdCase{200, 14, 40.0, 16, 4},
                      KdCase{500, 3, 0.5, 1, 5}, KdCase{500, 3, 200.0, 32, 6}));

TEST(KdTree, PrunesComparedToLinearScan) {
  Dataset ds = gen_blobs(20000, 3, 5, 100.0, 3.0, 0.1, 7);
  KdTree tree(ds);
  std::vector<PointId> out;
  tree.query_ball(ds.point(0), 2.0, out);
  // A small ball query must touch far fewer than all points.
  EXPECT_LT(tree.distance_evals(), ds.size() / 4);
}

}  // namespace
}  // namespace udb
