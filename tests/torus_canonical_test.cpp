// Property: canonical (shape, base) descriptions are in bijection with
// partition node sets. The PartitionCatalog relies on this to skip any
// dedup pass — two canonical boxes never cover the same node set, and every
// wrapped box equals its canonical form's node set.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "param_names.hpp"
#include "torus/catalog.hpp"
#include "torus/partition.hpp"

namespace bgl {
namespace {

class CanonicalBijection : public ::testing::TestWithParam<Dims> {};

TEST_P(CanonicalBijection, DistinctCanonicalBoxesHaveDistinctNodeSets) {
  const Dims dims = GetParam();
  std::map<std::vector<int>, Box> seen;  // node ids -> first canonical box
  int total = 0;
  for (int sx = 1; sx <= dims.x; ++sx) {
    for (int sy = 1; sy <= dims.y; ++sy) {
      for (int sz = 1; sz <= dims.z; ++sz) {
        const int bx_max = sx == dims.x ? 1 : dims.x;
        const int by_max = sy == dims.y ? 1 : dims.y;
        const int bz_max = sz == dims.z ? 1 : dims.z;
        for (int bx = 0; bx < bx_max; ++bx) {
          for (int by = 0; by < by_max; ++by) {
            for (int bz = 0; bz < bz_max; ++bz) {
              const Box box{Coord{bx, by, bz}, Triple{sx, sy, sz}};
              std::vector<int> ids;
              for (const NodeId id : box_nodes(dims, box)) ids.push_back(id);
              const auto [it, inserted] = seen.emplace(ids, box);
              EXPECT_TRUE(inserted)
                  << to_string(box) << " collides with " << to_string(it->second)
                  << " on " << to_string(dims);
              ++total;
            }
          }
        }
      }
    }
  }
  PartitionCatalog catalog(dims);
  EXPECT_EQ(catalog.num_entries(), total);
}

TEST_P(CanonicalBijection, EveryWrappedBoxEqualsItsCanonicalForm) {
  const Dims dims = GetParam();
  // All boxes including non-canonical bases.
  for (int sx = 1; sx <= dims.x; ++sx) {
    for (int sy = 1; sy <= dims.y; ++sy) {
      for (int sz = 1; sz <= dims.z; ++sz) {
        for (int bx = 0; bx < dims.x; ++bx) {
          for (int by = 0; by < dims.y; ++by) {
            for (int bz = 0; bz < dims.z; ++bz) {
              const Box box{Coord{bx, by, bz}, Triple{sx, sy, sz}};
              const Box canon = canonicalize(dims, box);
              ASSERT_EQ(box_mask(dims, box), box_mask(dims, canon))
                  << to_string(box) << " vs canonical " << to_string(canon);
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallTori, CanonicalBijection,
                         ::testing::Values(Dims{2, 2, 2}, Dims{3, 3, 4},
                                           Dims{1, 4, 4}, Dims{2, 3, 5},
                                           Dims{4, 4, 8}),
                         [](const ::testing::TestParamInfo<Dims>& info) {
                           return test::dims_name(info.param);
                         });

}  // namespace
}  // namespace bgl
