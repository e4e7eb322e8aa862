#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace androne {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextU64BelowRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextU64Below(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextU64Below(0), 0u);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian(5.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    double e = rng.Exponential(3.0);
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  // The fork and parent should not track each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == forked.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

bool SameState(const Rng::State& a, const Rng::State& b) {
  return std::memcmp(a.s, b.s, sizeof(a.s)) == 0 &&
         a.has_spare_gaussian == b.has_spare_gaussian &&
         std::memcmp(&a.spare_gaussian, &b.spare_gaussian,
                     sizeof(a.spare_gaussian)) == 0;
}

TEST(RngTest, FillStandardNormalsMatchesSequentialDraws) {
  for (bool spare_latched : {false, true}) {
    for (int n = 0; n <= 9; ++n) {
      SCOPED_TRACE(testing::Message() << "n=" << n
                                      << " spare=" << spare_latched);
      Rng block(1000 + static_cast<uint64_t>(n));
      if (spare_latched) {
        (void)block.NextGaussian();  // Leaves the pair's second latched.
      }
      Rng sequential = block;
      // Two rounds, so the second starts from whatever the first left.
      for (int round = 0; round < 2; ++round) {
        double out[9];
        block.FillStandardNormals(out, n);
        for (int i = 0; i < n; ++i) {
          double expected = sequential.NextGaussian();
          EXPECT_EQ(std::memcmp(&out[i], &expected, sizeof(double)), 0)
              << "draw " << i << ": " << out[i] << " vs " << expected;
        }
        EXPECT_TRUE(SameState(block.SaveState(), sequential.SaveState()))
            << "round " << round;
      }
    }
  }
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
  }
}

}  // namespace
}  // namespace androne
