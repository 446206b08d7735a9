// Cross-validation of the three Appendix-9 partition finders against each
// other and against the production PartitionCatalog: on random occupancies
// all of them must report exactly the same canonical free-partition sets.
#include "torus/finders.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "param_names.hpp"
#include "torus/catalog.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

using BoxKey = std::tuple<int, int, int, int, int, int>;

BoxKey key(const Box& b) {
  return {b.shape.x, b.shape.y, b.shape.z, b.base.x, b.base.y, b.base.z};
}

std::set<BoxKey> keys(const std::vector<Box>& boxes) {
  std::set<BoxKey> out;
  for (const Box& b : boxes) out.insert(key(b));
  return out;
}

NodeSet random_occupancy(const Dims& dims, double density, Rng& rng) {
  NodeSet occ(dims.volume());
  for (int i = 0; i < dims.volume(); ++i) {
    if (rng.bernoulli(density)) occ.set(i);
  }
  return occ;
}

TEST(Finders, EmptyTorusCountsMatchCatalog) {
  const Dims dims = Dims::bluegene_l();
  PartitionCatalog catalog(dims);
  NodeSet occ(dims.volume());
  for (const int s : {1, 4, 8, 16, 32, 64, 128}) {
    const auto naive = find_free_naive(dims, occ, s);
    const auto [first, last] = catalog.size_range(s);
    EXPECT_EQ(static_cast<int>(naive.size()), last - first) << "size " << s;
  }
}

TEST(Finders, FullTorusFindsNothing) {
  const Dims dims{3, 3, 3};
  NodeSet occ(dims.volume());
  occ.fill();
  EXPECT_TRUE(find_free_naive(dims, occ, 1).empty());
  EXPECT_TRUE(find_free_pop(dims, occ, 1).empty());
  EXPECT_TRUE(find_free_divisor(dims, occ, 1).empty());
}

TEST(Finders, ResultsAreActuallyFree) {
  const Dims dims{4, 4, 8};
  Rng rng(7);
  const NodeSet occ = random_occupancy(dims, 0.35, rng);
  for (const Box& box : find_free_divisor(dims, occ, 8)) {
    for (const NodeId id : box_nodes(dims, box)) {
      EXPECT_FALSE(occ.test(static_cast<int>(id)));
    }
  }
}

TEST(Finders, AllNaiveContainsEverySizeSubset) {
  const Dims dims{3, 3, 3};
  Rng rng(11);
  const NodeSet occ = random_occupancy(dims, 0.3, rng);
  const auto all = keys(find_free_all_naive(dims, occ));
  for (int s = 1; s <= dims.volume(); ++s) {
    for (const Box& b : find_free_naive(dims, occ, s)) {
      EXPECT_TRUE(all.count(key(b)) > 0);
    }
  }
}

struct FinderCase {
  int mx, my, mz;
  double density;
  int size;
  std::uint64_t seed;
};

class FinderAgreement : public ::testing::TestWithParam<FinderCase> {};

TEST_P(FinderAgreement, AllThreeFindersAndCatalogAgree) {
  const FinderCase c = GetParam();
  const Dims dims{c.mx, c.my, c.mz};
  Rng rng(c.seed);
  const NodeSet occ = random_occupancy(dims, c.density, rng);

  const auto naive = keys(find_free_naive(dims, occ, c.size));
  const auto pop = keys(find_free_pop(dims, occ, c.size));
  const auto divisor = keys(find_free_divisor(dims, occ, c.size));
  EXPECT_EQ(naive, pop);
  EXPECT_EQ(naive, divisor);

  PartitionCatalog catalog(dims);
  std::vector<int> free;
  catalog.free_entries_of_size(occ, c.size, free);
  std::set<BoxKey> from_catalog;
  for (const int idx : free) from_catalog.insert(key(catalog.entry(idx).box));
  EXPECT_EQ(naive, from_catalog);
}

INSTANTIATE_TEST_SUITE_P(
    RandomOccupancies, FinderAgreement,
    ::testing::Values(
        FinderCase{4, 4, 8, 0.0, 32, 1}, FinderCase{4, 4, 8, 0.2, 8, 2},
        FinderCase{4, 4, 8, 0.2, 32, 3}, FinderCase{4, 4, 8, 0.5, 16, 4},
        FinderCase{4, 4, 8, 0.5, 4, 5}, FinderCase{4, 4, 8, 0.8, 2, 6},
        FinderCase{4, 4, 8, 0.8, 1, 7}, FinderCase{4, 4, 8, 0.3, 128, 8},
        FinderCase{4, 4, 8, 0.1, 64, 9}, FinderCase{4, 4, 8, 0.4, 14, 10},
        FinderCase{3, 3, 3, 0.3, 9, 11}, FinderCase{3, 3, 3, 0.5, 3, 12},
        FinderCase{2, 2, 2, 0.4, 4, 13}, FinderCase{2, 2, 2, 0.6, 2, 14},
        FinderCase{5, 5, 5, 0.3, 25, 15}, FinderCase{5, 5, 5, 0.5, 10, 16},
        FinderCase{6, 6, 6, 0.4, 36, 17}, FinderCase{6, 6, 6, 0.2, 12, 18},
        FinderCase{1, 1, 8, 0.3, 4, 19}, FinderCase{4, 1, 1, 0.5, 2, 20},
        FinderCase{2, 3, 5, 0.3, 6, 21}, FinderCase{2, 3, 5, 0.5, 5, 22}),
    [](const ::testing::TestParamInfo<FinderCase>& info) {
      const FinderCase& c = info.param;
      return test::dims_name(Dims{c.mx, c.my, c.mz}) + "_Density" +
             test::number_name(c.density) + "_Size" + std::to_string(c.size) +
             "_Seed" + std::to_string(c.seed);
    });

TEST(Finders, PrimeOversizedShapeYieldsNothing) {
  const Dims dims{4, 4, 8};
  NodeSet occ(dims.volume());
  EXPECT_TRUE(find_free_naive(dims, occ, 13).empty());
  EXPECT_TRUE(find_free_pop(dims, occ, 13).empty());
  EXPECT_TRUE(find_free_divisor(dims, occ, 13).empty());
}

TEST(Finders, SkipOptimizationStillFindsIsolatedHole) {
  // Occupy everything except one 1x1x4 column segment; the divisor finder's
  // base-skipping must still locate it.
  const Dims dims{4, 4, 8};
  NodeSet occ(dims.volume());
  occ.fill();
  for (int z = 2; z < 6; ++z) occ.reset(node_id(dims, Coord{1, 2, z}));
  const auto found = find_free_divisor(dims, occ, 4);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].base, (Coord{1, 2, 2}));
  EXPECT_EQ(found[0].shape, (Triple{1, 1, 4}));
  EXPECT_EQ(keys(found), keys(find_free_naive(dims, occ, 4)));
}

}  // namespace
}  // namespace bgl
