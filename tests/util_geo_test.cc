#include "src/util/geo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/rng.h"

namespace androne {
namespace {

// The two construction-site waypoints from the paper's Figure 2.
const GeoPoint kWaypointA{43.6084298, -85.8110359, 15};
const GeoPoint kWaypointB{43.6076409, -85.8154457, 15};

TEST(GeoTest, HaversineZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kWaypointA, kWaypointA), 0.0);
}

TEST(GeoTest, HaversineKnownDistance) {
  // The Figure 2 waypoints are ~365 m apart on the ground.
  double d = HaversineMeters(kWaypointA, kWaypointB);
  EXPECT_NEAR(d, 365.0, 15.0);
}

TEST(GeoTest, HaversineIsSymmetric) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kWaypointA, kWaypointB),
                   HaversineMeters(kWaypointB, kWaypointA));
}

TEST(GeoTest, Distance3dIncludesAltitude) {
  GeoPoint up = kWaypointA;
  up.altitude_m += 30;
  EXPECT_DOUBLE_EQ(Distance3dMeters(kWaypointA, up), 30.0);
  double ground = HaversineMeters(kWaypointA, kWaypointB);
  GeoPoint high_b = kWaypointB;
  high_b.altitude_m = kWaypointA.altitude_m + 40;
  EXPECT_NEAR(Distance3dMeters(kWaypointA, high_b),
              std::sqrt(ground * ground + 40 * 40), 1e-6);
}

TEST(GeoTest, BearingCardinalDirections) {
  GeoPoint origin{40.0, -74.0, 0};
  GeoPoint north{40.01, -74.0, 0};
  GeoPoint east{40.0, -73.99, 0};
  GeoPoint south{39.99, -74.0, 0};
  GeoPoint west{40.0, -74.01, 0};
  EXPECT_NEAR(BearingDeg(origin, north), 0.0, 0.5);
  EXPECT_NEAR(BearingDeg(origin, east), 90.0, 0.5);
  EXPECT_NEAR(BearingDeg(origin, south), 180.0, 0.5);
  EXPECT_NEAR(BearingDeg(origin, west), 270.0, 0.5);
}

TEST(GeoTest, NedRoundTrip) {
  NedPoint ned{120.0, -40.0, -15.0};
  GeoPoint p = FromNed(kWaypointA, ned);
  NedPoint back = ToNed(kWaypointA, p);
  EXPECT_NEAR(back.north_m, ned.north_m, 1e-6);
  EXPECT_NEAR(back.east_m, ned.east_m, 1e-6);
  EXPECT_NEAR(back.down_m, ned.down_m, 1e-6);
}

TEST(GeoTest, NedMatchesHaversineLocally) {
  NedPoint ned = ToNed(kWaypointA, kWaypointB);
  double ned_ground = std::hypot(ned.north_m, ned.east_m);
  EXPECT_NEAR(ned_ground, HaversineMeters(kWaypointA, kWaypointB), 0.5);
}

// The free-function formulas as they stood before LocalFrame, cos taken
// per call; LocalFrame must reproduce them bit for bit.
NedPoint ReferenceToNed(const GeoPoint& origin, const GeoPoint& p) {
  double dlat = (p.latitude_deg - origin.latitude_deg) * kDegToRad;
  double dlon = (p.longitude_deg - origin.longitude_deg) * kDegToRad;
  double coslat = std::cos(origin.latitude_deg * kDegToRad);
  return NedPoint{dlat * kEarthRadiusM, dlon * kEarthRadiusM * coslat,
                  -(p.altitude_m - origin.altitude_m)};
}

GeoPoint ReferenceFromNed(const GeoPoint& origin, const NedPoint& ned) {
  double coslat = std::cos(origin.latitude_deg * kDegToRad);
  return GeoPoint{
      origin.latitude_deg + (ned.north_m / kEarthRadiusM) * kRadToDeg,
      origin.longitude_deg +
          (ned.east_m / (kEarthRadiusM * coslat)) * kRadToDeg,
      origin.altitude_m - ned.down_m};
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitEqual(const NedPoint& a, const NedPoint& b) {
  EXPECT_EQ(Bits(a.north_m), Bits(b.north_m));
  EXPECT_EQ(Bits(a.east_m), Bits(b.east_m));
  EXPECT_EQ(Bits(a.down_m), Bits(b.down_m));
}

void ExpectBitEqual(const GeoPoint& a, const GeoPoint& b) {
  EXPECT_EQ(Bits(a.latitude_deg), Bits(b.latitude_deg));
  EXPECT_EQ(Bits(a.longitude_deg), Bits(b.longitude_deg));
  EXPECT_EQ(Bits(a.altitude_m), Bits(b.altitude_m));
}

TEST(GeoTest, LocalFrameIsBitEqualToThePerCallFormula) {
  std::vector<GeoPoint> origins = {
      kWaypointA,
      {0.0, 0.0, 0.0},
      {-0.0, -0.0, -0.0},
      {89.9, 12.5, 3.0},
      {-89.9, -170.0, 40.0},
      {10.0, 179.999, 0.0},   // East of the antimeridian...
      {-10.0, -179.999, 0.0}, // ...and west of it.
  };
  Rng rng(20191015);
  for (int i = 0; i < 64; ++i) {
    origins.push_back(GeoPoint{rng.Uniform(-89.9, 89.9),
                               rng.Uniform(-180.0, 180.0),
                               rng.Uniform(-50.0, 500.0)});
  }
  for (const GeoPoint& origin : origins) {
    SCOPED_TRACE(origin.ToString());
    LocalFrame frame(origin);
    ExpectBitEqual(frame.origin(), origin);
    std::vector<GeoPoint> points = {
        origin,
        {-0.0, -0.0, -0.0},
        {origin.latitude_deg, -origin.longitude_deg, 0.0},
        {origin.latitude_deg + 0.001, 179.9999, 10.0},
        {origin.latitude_deg - 0.001, -179.9999, 10.0},
    };
    std::vector<NedPoint> offsets = {{0.0, 0.0, 0.0},
                                     {-0.0, -0.0, -0.0},
                                     {1500.0, -2500.0, -120.0}};
    for (int k = 0; k < 16; ++k) {
      points.push_back(GeoPoint{
          origin.latitude_deg + rng.Uniform(-0.05, 0.05),
          origin.longitude_deg + rng.Uniform(-0.05, 0.05),
          rng.Uniform(-10.0, 120.0)});
      offsets.push_back(NedPoint{rng.Uniform(-5000.0, 5000.0),
                                 rng.Uniform(-5000.0, 5000.0),
                                 rng.Uniform(-200.0, 10.0)});
    }
    for (const GeoPoint& p : points) {
      ExpectBitEqual(frame.ToNed(p), ReferenceToNed(origin, p));
      ExpectBitEqual(ToNed(origin, p), ReferenceToNed(origin, p));
    }
    for (const NedPoint& ned : offsets) {
      ExpectBitEqual(frame.FromNed(ned), ReferenceFromNed(origin, ned));
      ExpectBitEqual(FromNed(origin, ned), ReferenceFromNed(origin, ned));
    }
  }
}

TEST(GeoTest, MoveTowardReachesTarget) {
  GeoPoint p = MoveToward(kWaypointA, kWaypointB, 1e9);
  EXPECT_EQ(p, kWaypointB);
}

TEST(GeoTest, MoveTowardPartialStepShrinksDistance) {
  double total = Distance3dMeters(kWaypointA, kWaypointB);
  GeoPoint p = MoveToward(kWaypointA, kWaypointB, total / 4);
  EXPECT_NEAR(Distance3dMeters(kWaypointA, p), total / 4, 0.5);
  EXPECT_NEAR(Distance3dMeters(p, kWaypointB), 3 * total / 4, 0.5);
}

// Property: repeatedly stepping toward a target always terminates at it.
class GeoMoveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeoMoveTest, SteppingConvergesToTarget) {
  Rng rng(GetParam());
  GeoPoint from{rng.Uniform(-60, 60), rng.Uniform(-179, 179),
                rng.Uniform(0, 100)};
  GeoPoint to{from.latitude_deg + rng.Uniform(-0.01, 0.01),
              from.longitude_deg + rng.Uniform(-0.01, 0.01),
              rng.Uniform(0, 100)};
  double step = rng.Uniform(5.0, 50.0);
  GeoPoint p = from;
  int guard = 0;
  while (Distance3dMeters(p, to) > 1e-6 && guard++ < 10000) {
    double before = Distance3dMeters(p, to);
    p = MoveToward(p, to, step);
    double after = Distance3dMeters(p, to);
    EXPECT_LT(after, before + 1e-9);
  }
  EXPECT_LT(Distance3dMeters(p, to), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeoMoveTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace androne
