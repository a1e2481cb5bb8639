// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of mobicache draw from mobi::util::Rng so a
// single 64-bit seed reproduces an entire experiment bit-for-bit. The
// generator is xoshiro256** (Blackman & Vigna), seeded through SplitMix64,
// which is both faster and of higher statistical quality than
// std::mt19937_64 while keeping the object trivially copyable.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mobi::util {

/// SplitMix64: used to expand a single seed into generator state. Also a
/// decent standalone mixer for hashing small integers.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the library's workhorse generator.
///
/// Satisfies std::uniform_random_bit_generator, so it can be passed to
/// standard <random> distributions and std::shuffle as well.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9c0def1dabcdef01ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 mixer(seed);
    for (auto& word : state_) word = mixer.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform() noexcept { return double(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in the inclusive range [lo, hi]; unbiased (see
  /// bounded()).
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
    const std::uint64_t span = hi - lo + 1;  // span==0 means the full range
    if (span == 0) return next();
    return lo + bounded(span);
  }

  /// Uniform integer in the inclusive range [lo, hi] (signed convenience).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + std::int64_t(bounded(std::uint64_t(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed sample with the given rate (mean = 1/rate).
  double exponential(double rate);

  /// Standard normal sample (Box-Muller; one value per call, no caching so
  /// the stream is insensitive to call interleavings).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = std::size_t(bounded(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// A random permutation of {0, 1, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator; useful for giving each
  /// simulation component (workload, updates, ...) its own stream.
  Rng split() noexcept { return Rng(next() ^ 0xdeadbeefcafef00dULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// Unbiased sample from [0, bound). Precondition: bound > 0.
  ///
  /// Threshold-and-modulo rejection: draws below 2^64 mod bound are
  /// redrawn and the first other one is reduced mod bound, so every call
  /// costs two 64-bit divisions. Lemire's nearly-divisionless method would
  /// avoid them, but it maps draws to values differently, so switching
  /// would move every random stream and with it every golden.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mobi::util
