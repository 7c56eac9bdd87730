#include "sim/random.hpp"

#include <cmath>

namespace h2sim::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng Rng::split() { return Rng(raw_u64() ^ 0xdeadbeefcafef00dULL); }

std::uint64_t Rng::raw_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::raw_u01() {
  return static_cast<double>(raw_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_impl(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = raw_u64();
    if (r >= threshold) return r % n;
  }
}

std::uint64_t Rng::next_u64() { return raw_u64(); }

std::uint64_t Rng::uniform(std::uint64_t n) { return uniform_impl(n); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_impl(span));
}

double Rng::uniform01() { return raw_u01(); }

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * raw_u01();
}

bool Rng::bernoulli(double p) {
  // p outside (0,1) short-circuits without consuming a word.
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return raw_u01() < p;
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = raw_u01();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::gaussian(double mean, double stddev) {
  if (have_gauss_) {
    have_gauss_ = false;
    return mean + stddev * gauss_cache_;
  }
  double u1, u2;
  do {
    u1 = raw_u01();
  } while (u1 <= 0.0);
  u2 = raw_u01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  gauss_cache_ = mag * std::sin(two_pi * u2);
  have_gauss_ = true;
  return mean + stddev * mag * std::cos(two_pi * u2);
}

}  // namespace h2sim::sim
