#include "util/math.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bgl {

std::vector<int> divisors(int n) {
  BGL_CHECK(n > 0, "divisors() requires a positive argument");
  std::vector<int> low;
  std::vector<int> high;
  for (int d = 1; static_cast<long long>(d) * d <= n; ++d) {
    if (n % d == 0) {
      low.push_back(d);
      if (d != n / d) high.push_back(n / d);
    }
  }
  low.insert(low.end(), high.rbegin(), high.rend());
  return low;
}

std::vector<Triple> divisor_triples(int s, int max_x, int max_y, int max_z) {
  BGL_CHECK(s > 0, "shape volume must be positive");
  std::vector<Triple> shapes;
  for (const int x : divisors(s)) {
    if (x > max_x) continue;
    const int rest = s / x;
    for (const int y : divisors(rest)) {
      if (y > max_y) continue;
      const int z = rest / y;
      if (z > max_z) continue;
      shapes.push_back(Triple{x, y, z});
    }
  }
  return shapes;
}

}  // namespace bgl
