// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component of the simulator (workload generators, failure
// trace generators, predictor sampling) draws from an explicitly seeded
// bgl::Rng so that a run is a pure function of its configuration. We use
// xoshiro256** seeded via SplitMix64, the de-facto standard for fast,
// high-quality non-cryptographic streams, instead of std::mt19937 whose
// seeding is both slow and easy to get wrong.
#pragma once

#include <array>
#include <cstdint>

namespace bgl {

/// SplitMix64 step; also useful as a cheap stateless hash for derived seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mix of two 64-bit values into one (for per-(job,node) sampling).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  /// Seed via SplitMix64 so that nearby seeds give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform on the full 64-bit range.
  std::uint64_t next_u64();

  /// Uniform real in [0, 1).
  double uniform();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive (unbiased via rejection).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate);

  /// Weibull with shape k and scale lambda.
  double weibull(double shape, double scale);

  /// Lognormal: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma);

  /// Standard normal via Box-Muller (cached second value).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Geometric-like zipf sample over {0, ..., n-1} with exponent s.
  std::size_t zipf(std::size_t n, double s);

 private:
  std::array<std::uint64_t, 4> state_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace bgl
