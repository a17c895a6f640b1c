// Deterministic, seedable random number generation. Every source of
// randomness in the simulator (latency jitter, message loss, workload
// generation, backoff) draws from an explicitly seeded Rng so that whole
// experiments replay bit-identically from a seed.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace paxoscp {

/// xoshiro256** seeded via SplitMix64. Not cryptographic; fast and well
/// distributed, which is all a simulator needs.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (p clamped to [0, 1]).
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

/// SplitMix64 finalizer: a stream-free hash for seeds and timer jitter that
/// must be a pure function of their inputs (drawing them from an Rng would
/// make them depend on how many draws came before).
uint64_t HashMix(uint64_t x);

/// FNV-1a over `bytes`: folds a name into a HashMix input.
uint64_t HashString(std::string_view bytes);

}  // namespace paxoscp
