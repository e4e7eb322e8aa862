#include "src/hw/sensors.h"

#include <cmath>

namespace androne {

namespace {
// Horizontal GPS noise, ~consumer-module CEP.
constexpr double kGpsNoiseM = 1.2;
constexpr double kGpsAltNoiseM = 2.0;
constexpr double kGyroNoiseRads = 0.002;
constexpr double kAccelNoiseMss = 0.05;
constexpr double kBaroNoiseM = 0.1;
constexpr double kMagNoiseRad = 0.01;
constexpr double kGravityMss = 9.80665;
}  // namespace

GpsReceiver::GpsReceiver(SimClock* clock, const DroneGroundTruth* truth,
                         uint64_t seed)
    : HardwareDevice(kGpsDeviceName), clock_(clock), truth_(truth),
      rng_(seed) {}

StatusOr<GpsFix> GpsReceiver::ReadFix(ContainerId caller) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  GpsFix fix;
  NedPoint noise{rng_.Gaussian(0, kGpsNoiseM), rng_.Gaussian(0, kGpsNoiseM),
                 rng_.Gaussian(0, kGpsAltNoiseM)};
  fix.position = FromNed(truth_->position, noise);
  fix.velocity_ms = truth_->velocity_ms;
  fix.satellites = satellites_;
  fix.has_fix = satellites_ >= 6;
  fix.timestamp = clock_->now();
  return fix;
}

Imu::Imu(SimClock* clock, const DroneGroundTruth* truth, uint64_t seed)
    : HardwareDevice(kImuDeviceName), clock_(clock), truth_(truth),
      rng_(seed) {}

StatusOr<ImuSample> Imu::ReadSample(ContainerId caller) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  ImuSample s;
  // All six normals in one block, gyro x/y/z then accel x/y/z; each axis
  // keeps Rng::Gaussian's mean + stddev * z form (mean 0).
  double z[6];
  rng_.FillStandardNormals(z, 6);
  s.gyro_rads = {truth_->roll_rate_rads + (0.0 + kGyroNoiseRads * z[0]),
                 truth_->pitch_rate_rads + (0.0 + kGyroNoiseRads * z[1]),
                 truth_->yaw_rate_rads + (0.0 + kGyroNoiseRads * z[2])};
  // Body-frame specific force: at hover this reads -g on the z axis plus
  // the tilt components on x/y (small-angle approximation).
  double fz = -(kGravityMss + truth_->accel_up_mss);
  s.accel_mss = {
      kGravityMss * std::sin(truth_->pitch_rad) +
          (0.0 + kAccelNoiseMss * z[3]),
      -kGravityMss * std::sin(truth_->roll_rad) +
          (0.0 + kAccelNoiseMss * z[4]),
      fz + (0.0 + kAccelNoiseMss * z[5]),
  };
  s.timestamp = clock_->now();
  return s;
}

Barometer::Barometer(SimClock* clock, const DroneGroundTruth* truth,
                     uint64_t seed)
    : HardwareDevice(kBarometerDeviceName), clock_(clock), truth_(truth),
      rng_(seed) {}

StatusOr<double> Barometer::ReadAltitudeM(ContainerId caller) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  return truth_->position.altitude_m + rng_.Gaussian(0, kBaroNoiseM);
}

Magnetometer::Magnetometer(SimClock* clock, const DroneGroundTruth* truth,
                           uint64_t seed)
    : HardwareDevice(kMagnetometerDeviceName), clock_(clock), truth_(truth),
      rng_(seed) {}

StatusOr<double> Magnetometer::ReadHeadingRad(ContainerId caller) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  double heading = truth_->yaw_rad + rng_.Gaussian(0, kMagNoiseRad);
  // Normalize to [0, 2*pi).
  constexpr double kTwoPi = 6.283185307179586;
  heading = std::fmod(heading, kTwoPi);
  if (heading < 0) {
    heading += kTwoPi;
  }
  return heading;
}

Microphone::Microphone(SimClock* clock)
    : HardwareDevice(kMicrophoneDeviceName), clock_(clock) {}

Status Speaker::Play(ContainerId caller, size_t samples) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  samples_played_ += samples;
  return OkStatus();
}

StatusOr<std::vector<int16_t>> Microphone::Record(ContainerId caller,
                                                  size_t samples) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  (void)clock_;
  std::vector<int16_t> pcm(samples);
  for (size_t i = 0; i < samples; ++i) {
    // Synthetic rotor hum: 200 Hz tone at 44.1 kHz sample rate.
    pcm[i] = static_cast<int16_t>(
        8000.0 * std::sin(2 * 3.14159265 * 200.0 *
                          static_cast<double>(phase_++) / 44100.0));
  }
  return pcm;
}

}  // namespace androne
