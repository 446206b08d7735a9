// Integer helpers: divisors and divisor triples, used by the shape
// enumeration in the torus module and by the Appendix-9 partition finder.
#pragma once

#include <cstdint>
#include <vector>

namespace bgl {

/// All positive divisors of n, ascending. O(sqrt n).
std::vector<int> divisors(int n);

/// A rectangular box shape (extent per dimension).
struct Triple {
  int x = 0;
  int y = 0;
  int z = 0;
  friend bool operator==(const Triple&, const Triple&) = default;
};

/// All ordered triples (x, y, z) with x*y*z == s, x <= max_x, y <= max_y,
/// z <= max_z. This is the paper's SHAPES set restricted to the machine
/// dimensions. Deterministic order: lexicographic in (x, y, z).
std::vector<Triple> divisor_triples(int s, int max_x, int max_y, int max_z);

/// Ceiling division for positive integers.
constexpr long long ceil_div(long long a, long long b) {
  return (a + b - 1) / b;
}

/// True if n is a power of two.
constexpr bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace bgl
