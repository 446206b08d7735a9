#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bgl {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2));
  std::uint64_t mixed = splitmix64(state);
  state ^= b;
  return mixed ^ splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  BGL_CHECK(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  BGL_CHECK(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full range (hi - lo + 1 overflowed)
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - span) % span;
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return lo + r % span;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double rate) {
  BGL_CHECK(rate > 0.0, "exponential rate must be positive");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

double Rng::weibull(double shape, double scale) {
  BGL_CHECK(shape > 0.0 && scale > 0.0, "weibull parameters must be positive");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

std::size_t Rng::zipf(std::size_t n, double s) {
  BGL_CHECK(n > 0, "zipf requires a non-empty support");
  // Direct inverse-CDF over the (small) support; fine for n <= a few hundred.
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) total += 1.0 / std::pow(static_cast<double>(k), s);
  double target = uniform() * total;
  for (std::size_t k = 1; k <= n; ++k) {
    target -= 1.0 / std::pow(static_cast<double>(k), s);
    if (target <= 0.0) return k - 1;
  }
  return n - 1;
}

}  // namespace bgl
