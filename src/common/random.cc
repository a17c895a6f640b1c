#include "common/random.h"

#include <cassert>
#include <cmath>

namespace paxoscp {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  return HashMix(*state += 0x9e3779b97f4a7c15ULL);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}

}  // namespace

uint64_t HashMix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashString(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  zetan_ = Zeta(n, theta);
  zeta2theta_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1 - std::pow(2.0 / double(n_), 1 - theta_)) /
         (1 - zeta2theta_ / zetan_);
}

uint64_t ZipfianGenerator::Next(Rng* rng) {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t v = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace paxoscp
