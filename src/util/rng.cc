#include "src/util/rng.h"

#include <cmath>

namespace androne {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  for (auto& s : state_) {
    s = SplitMix64(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
}

uint64_t Rng::NextU64() {
  uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextU64Below(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::DrawPolarPair() {
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * m;
  return u * m;
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  has_spare_gaussian_ = true;
  return DrawPolarPair();
}

void Rng::FillStandardNormals(double* out, int n) {
  int i = 0;
  if (n > 0 && has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    out[i++] = spare_gaussian_;
  }
  // Each pair leaves its second normal in spare_gaussian_ with the latch
  // clear, exactly as two sequential NextGaussian() calls would.
  for (; i + 1 < n; i += 2) {
    out[i] = DrawPolarPair();
    out[i + 1] = spare_gaussian_;
  }
  if (i < n) {
    out[i] = NextGaussian();
  }
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace androne
