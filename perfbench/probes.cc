#include "perfbench/probes.h"

#include <array>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/exec/fleet_world.h"
#include "src/flight/controllers.h"
#include "src/flight/estimator.h"
#include "src/flight/quad_physics.h"
#include "src/flight/safety_supervisor.h"
#include "src/hw/motors.h"
#include "src/hw/sensor_bus.h"
#include "src/hw/sensors.h"
#include "src/mavlink/frame.h"
#include "src/mavlink/messages.h"
#include "src/net/channel.h"
#include "src/net/link_model.h"
#include "src/util/geo.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace perfbench {
namespace {

using androne::AttitudeController;
using androne::AttitudeTarget;
using androne::GeoPoint;
using androne::Micros;
using androne::Millis;
using androne::Rng;
using androne::SimClock;
using androne::SimDuration;

constexpr SimDuration kTick = Micros(2500);  // 400 Hz fast loop.
constexpr androne::ContainerId kDevice = 1;
// Pending events a probe keeps on a SimClock heap: a world mid-flight
// holds tens of armed timers; a control-plane shard holds one-shots for
// the sessions in flight (1200 sessions over 8 shards).
constexpr int kWorldHeapDepth = 64;
constexpr int kShardHeapDepth = 150;
// Repetitions per probe; the reported value is their median.
constexpr int kReps = 5;

const GeoPoint kHome{43.6084298, -85.8110359, 0.0};

volatile double g_sink = 0;
void Consume(double v) { g_sink = g_sink + v; }

// Median over kReps of (wall ns of |body| / |calls|).
double NsPerCall(int64_t calls, const std::function<void()>& body) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t start = NowNs();
    body();
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(calls));
  }
  return Median(per_call);
}

// One recorded fast-loop tick of a closed-loop hover-and-translate flight:
// the inputs each flight-stack stage saw, so the stages can be re-timed in
// isolation on realistic values.
struct TickRecord {
  androne::SensorSnapshot sensors;
  bool slow_due = false;
  bool gps_due = false;
  std::array<double, 10> position_in{};  // n e d vn ve vd tn te td yaw
  std::array<double, 6> attitude_in{};   // roll pitch yaw p q r
  AttitudeTarget target;
  std::array<double, androne::kNumMotors> motors{};
  androne::SafetyInputs safety;
};

std::vector<TickRecord> RecordFlight(uint64_t seed, int ticks) {
  SimClock clock;
  androne::QuadPhysics physics(kHome);
  androne::MotorSet motors;
  (void)motors.Open(kDevice);
  (void)motors.Arm(kDevice);
  androne::DroneGroundTruth* truth = physics.mutable_truth();
  androne::GpsReceiver gps(&clock, truth, seed + 1);
  androne::Imu imu(&clock, truth, seed + 2);
  androne::Barometer baro(&clock, truth, seed + 3);
  androne::Magnetometer mag(&clock, truth, seed + 4);
  for (androne::HardwareDevice* d :
       std::initializer_list<androne::HardwareDevice*>{&gps, &imu, &baro,
                                                       &mag}) {
    (void)d->Open(kDevice);
  }
  androne::SensorHub hub(&clock, &gps, &imu, &baro, &mag, kDevice);
  androne::Estimator estimator(kHome);
  androne::PositionController position(physics.hover_throttle(),
                                       androne::PositionControllerLimits{});
  AttitudeController attitude;
  std::vector<TickRecord> out(static_cast<size_t>(ticks));
  androne::SimTime last_slow = -androne::Seconds(1);
  androne::SimTime last_gps = -androne::Seconds(1);
  for (int i = 0; i < ticks; ++i) {
    TickRecord& r = out[static_cast<size_t>(i)];
    clock.RunFor(kTick);
    r.sensors = hub.Sample();
    estimator.UpdateImu(r.sensors.imu, kTick);
    r.slow_due = clock.now() - last_slow >= Millis(40);
    if (r.slow_due) {
      last_slow = clock.now();
      estimator.UpdateBaro(r.sensors.baro_altitude_m);
      estimator.UpdateMag(r.sensors.mag_heading_rad);
    }
    r.gps_due = clock.now() - last_gps >= Millis(200);
    if (r.gps_due) {
      last_gps = clock.now();
      estimator.UpdateGps(r.sensors.gps);
    }
    const androne::NedPoint ned = physics.ned_position();
    const double north_target = i > ticks / 4 ? 30.0 : 0.0;
    r.position_in = {ned.north_m,        ned.east_m,
                     ned.down_m,         truth->velocity_ms.north_m,
                     truth->velocity_ms.east_m, truth->velocity_ms.down_m,
                     north_target,       0.0,
                     -10.0,              estimator.attitude().yaw_rad};
    const auto& p = r.position_in;
    r.target = position.Update(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7],
                               p[8], p[9], 0.0, kTick);
    r.attitude_in = {estimator.attitude().roll_rad,
                     estimator.attitude().pitch_rad,
                     estimator.attitude().yaw_rad,
                     truth->roll_rate_rads,
                     truth->pitch_rate_rads,
                     truth->yaw_rate_rads};
    const auto& a = r.attitude_in;
    r.motors = attitude.Update(r.target, a[0], a[1], a[2], a[3], a[4], a[5],
                               kTick);
    (void)motors.SetThrottles(kDevice, r.motors);
    physics.Step(kTick, motors);
    r.safety.roll_rad = a[0];
    r.safety.pitch_rad = a[1];
    r.safety.yaw_rad = a[2];
    r.safety.roll_rate_rads = estimator.last_gyro()[0];
    r.safety.pitch_rate_rads = estimator.last_gyro()[1];
    r.safety.yaw_rate_rads = estimator.last_gyro()[2];
    r.safety.altitude_m = -ned.down_m;
    r.safety.horizontal_from_home_m = std::hypot(ned.north_m, ned.east_m);
    r.safety.airborne = truth->airborne;
    r.safety.armed = true;
  }
  return out;
}

void FlightProbes(uint64_t seed, int ticks, MetricTable* table,
                  std::vector<std::pair<std::string, double>>* per_tick) {
  const std::vector<TickRecord> flight = RecordFlight(seed, ticks);
  const int64_t n = static_cast<int64_t>(flight.size());

  const double estimator_ns = NsPerCall(n, [&] {
    androne::Estimator estimator(kHome);
    for (const TickRecord& r : flight) {
      estimator.UpdateImu(r.sensors.imu, kTick);
      if (r.slow_due) {
        estimator.UpdateBaro(r.sensors.baro_altitude_m);
        estimator.UpdateMag(r.sensors.mag_heading_rad);
      }
      if (r.gps_due) {
        estimator.UpdateGps(r.sensors.gps);
      }
    }
    Consume(estimator.attitude().roll_rad);
  });

  const double control_ns = NsPerCall(n, [&] {
    androne::PositionController position(0.5,
                                         androne::PositionControllerLimits{});
    AttitudeController attitude;
    for (const TickRecord& r : flight) {
      const auto& p = r.position_in;
      const AttitudeTarget t = position.Update(
          p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8], p[9], 0.0,
          kTick);
      const auto& a = r.attitude_in;
      Consume(attitude.Update(t, a[0], a[1], a[2], a[3], a[4], a[5], kTick)[0]);
    }
  });

  const double physics_ns = NsPerCall(n, [&] {
    androne::QuadPhysics physics(kHome);
    androne::MotorSet motors;
    (void)motors.Open(kDevice);
    (void)motors.Arm(kDevice);
    for (const TickRecord& r : flight) {
      (void)motors.SetThrottles(kDevice, r.motors);
      physics.Step(kTick, motors);
    }
    Consume(physics.ned_position().down_m);
  });

  const double safety_ns = NsPerCall(n, [&] {
    SimClock clock;
    androne::SafetySupervisor safety(&clock, androne::SafetyEnvelope{}, 0.5);
    for (const TickRecord& r : flight) {
      clock.RunFor(kTick);
      safety.RecordDeadline(false);
      Consume(safety.Tick(r.safety, kTick).target.thrust);
    }
  });

  // The hub draws each sensor at its cadence (IMU every tick), so this is
  // where per-tick noise synthesis happens.
  const double hub_ns = NsPerCall(n, [&] {
    SimClock clock;
    androne::DroneGroundTruth truth;
    truth.position = kHome;
    androne::GpsReceiver gps(&clock, &truth, seed + 1);
    androne::Imu imu(&clock, &truth, seed + 2);
    androne::Barometer baro(&clock, &truth, seed + 3);
    androne::Magnetometer mag(&clock, &truth, seed + 4);
    (void)gps.Open(kDevice);
    (void)imu.Open(kDevice);
    (void)baro.Open(kDevice);
    (void)mag.Open(kDevice);
    androne::SensorHub hub(&clock, &gps, &imu, &baro, &mag, kDevice);
    for (int64_t i = 0; i < n; ++i) {
      clock.RunFor(kTick);
      (void)hub.Refresh();
    }
    Consume(hub.bus().latest().imu.accel_mss[0]);
  });

  const char* note = "per 400 Hz tick, isolated";
  table->Add("flight.estimator_ns", estimator_ns, "ns", kReps, note);
  table->Add("flight.control_ns", control_ns, "ns", kReps,
             "position + attitude cascade per tick, isolated");
  table->Add("flight.physics_ns", physics_ns, "ns", kReps, note);
  table->Add("flight.safety_ns", safety_ns, "ns", kReps, note);
  table->Add("hw.hub_refresh_ns", hub_ns, "ns", kReps,
             "SensorHub::Refresh per tick incl. noise draws, isolated");
  *per_tick = {{"flight.estimator_ns", estimator_ns},
               {"flight.control_ns", control_ns},
               {"flight.physics_ns", physics_ns},
               {"flight.safety_ns", safety_ns},
               {"hw.hub_refresh_ns", hub_ns}};
}

// A periodic 400 Hz timer that reschedules itself from its callback, on a
// heap holding kWorldHeapDepth far-future events: one tick = reschedule +
// RunNext.
double ClockTickNs(int64_t ticks) {
  return NsPerCall(ticks, [ticks] {
    SimClock clock;
    for (int d = 0; d < kWorldHeapDepth; ++d) {
      clock.ScheduleAt(androne::Seconds(1000000) + d, [] {});
    }
    std::function<void()> tick;
    tick = [&clock, &tick] { clock.ScheduleAfter(kTick, tick); };
    clock.ScheduleAfter(kTick, tick);
    for (int64_t i = 0; i < ticks; ++i) {
      clock.RunNext();
    }
    Consume(static_cast<double>(clock.events_run()));
  });
}

// Control-plane pattern: one-shot session events at scattered future
// times, a quarter of them cancelled before they fire, the rest run.
double ClockOneShotNs(uint64_t seed, int64_t ops) {
  return NsPerCall(ops, [seed, ops] {
    SimClock clock;
    Rng rng(seed);
    int64_t fired = 0;
    for (int d = 0; d < kShardHeapDepth; ++d) {
      clock.ScheduleAfter(androne::SecondsF(rng.Uniform(0, 60)),
                          [&fired] { ++fired; });
    }
    for (int64_t i = 0; i < ops; ++i) {
      const androne::EventId id = clock.ScheduleAfter(
          androne::SecondsF(rng.Uniform(0, 60)), [&fired] { ++fired; });
      if (i % 4 == 0) {
        clock.Cancel(id);
        clock.ScheduleAfter(androne::SecondsF(rng.Uniform(0, 60)),
                            [&fired] { ++fired; });
      }
      clock.RunNext();
    }
    Consume(static_cast<double>(fired));
  });
}

double GaussianNs(uint64_t seed, int64_t draws) {
  return NsPerCall(draws, [seed, draws] {
    Rng rng(seed);
    double sum = 0;
    for (int64_t i = 0; i < draws; ++i) {
      sum += rng.Gaussian(0, 1);
    }
    Consume(sum);
  });
}

// One telemetry frame as the downlink sends it: pack + encode into a reused
// scratch buffer.
double MavEncodeNs(int64_t frames) {
  return NsPerCall(frames, [frames] {
    std::vector<uint8_t> wire;
    androne::GlobalPositionInt pos;
    size_t bytes = 0;
    for (int64_t i = 0; i < frames; ++i) {
      pos.time_boot_ms = static_cast<uint32_t>(i);
      pos.lat = 436084298 + static_cast<int32_t>(i % 1000);
      androne::MavlinkFrame frame = androne::PackMessage(pos);
      frame.seq = static_cast<uint8_t>(i);
      wire.clear();
      androne::EncodeFrameInto(frame, &wire);
      bytes += wire.size();
    }
    Consume(static_cast<double>(bytes));
  });
}

// One VPN-encapsulated datagram over the LTE link, send through delivery.
double VpnSendNs(uint64_t seed, int64_t datagrams) {
  return NsPerCall(datagrams, [seed, datagrams] {
    SimClock clock;
    std::unique_ptr<androne::LinkModel> link =
        androne::MakeLinkModel(androne::LinkProfile::kCellularLte);
    androne::NetworkChannel channel(&clock, link.get(), seed);
    androne::VpnTunnel tx(&channel, 42);
    androne::VpnTunnel rx(&channel, 42);
    size_t received = 0;
    rx.SetReceiver(
        [&received](const std::vector<uint8_t>& bytes) {
          received += bytes.size();
        });
    const std::vector<uint8_t> payload(96, 0x5a);
    for (int64_t i = 0; i < datagrams; ++i) {
      tx.Send(payload);
      clock.RunFor(Millis(25));  // The batch flush cadence.
    }
    clock.RunAll();
    Consume(static_cast<double>(received));
  });
}

double HistRecordNs(uint64_t seed, int64_t records) {
  std::vector<int64_t> values(static_cast<size_t>(records));
  Rng rng(seed);
  for (int64_t& v : values) {
    v = static_cast<int64_t>(std::pow(10.0, rng.Uniform(3, 9)));
  }
  return NsPerCall(records, [&values] {
    androne::Histogram hist;
    for (int64_t v : values) {
      hist.Record(v);
    }
    Consume(static_cast<double>(hist.total_count()));
  });
}

double HistPercentileNs(uint64_t seed, int64_t queries) {
  androne::Histogram hist;
  Rng rng(seed);
  for (int i = 0; i < 1200; ++i) {
    hist.Record(static_cast<int64_t>(std::pow(10.0, rng.Uniform(3, 9))));
  }
  return NsPerCall(queries, [&hist, queries] {
    int64_t sum = 0;
    for (int64_t i = 0; i < queries; ++i) {
      sum += hist.Percentile(i % 2 == 0 ? 0.5 : 0.99);
    }
    Consume(static_cast<double>(sum));
  });
}

// FlightPlanner::Plan at the nominal worlds' shape: two tenants with one
// stop each around the base, 200 annealing iterations.
double PlanMs(uint64_t seed, int plans) {
  Rng rng(seed);
  std::vector<androne::PlannerJob> jobs;
  for (int t = 0; t < 2; ++t) {
    androne::PlannerJob job;
    job.vdrone_id = t;
    job.vdrone_ref = "vd-" + std::to_string(t);
    job.waypoint = androne::FromNed(
        kHome, androne::NedPoint{rng.Uniform(-120, 120),
                                 rng.Uniform(-120, 120), -10});
    job.service_time_s = 10;
    job.service_energy_j = 10 * 180.0;
    jobs.push_back(job);
  }
  androne::EnergyModel energy;
  androne::PlannerConfig config;
  config.depot = kHome;
  config.annealing_iterations = 200;
  return NsPerCall(plans, [&] {
    for (int i = 0; i < plans; ++i) {
      androne::FlightPlanner planner(energy, config);
      auto plan = planner.Plan(jobs);
      Consume(plan.ok() ? plan->makespan_s : 0);
    }
  }) * 1e-6;
}

// One nominal world with and without periodic + phase checkpoints: the
// wall-time difference per checkpoint saved, and the blob size.
void CheckpointProbe(uint64_t seed, int reps, SpanLog* spans,
                     MetricTable* table) {
  androne::FleetWorldConfig plain;
  plain.tenants = 2;
  plain.dwell_s = 10;
  plain.annealing_iterations = 200;
  androne::FleetWorldConfig checkpointed = plain;
  checkpointed.checkpoint = androne::CheckpointPolicy{4, true};
  androne::WorldContext ctx;
  ctx.seed = seed;
  std::vector<double> plain_ms, checkpointed_ms;
  double saved = 0;
  double bytes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t start = NowNs();
    {
      ScopedSpan span(spans, "probe.world_plain");
      Consume(static_cast<double>(androne::RunFleetWorld(plain, ctx).digest));
    }
    plain_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    start = NowNs();
    androne::WorldResult result;
    {
      ScopedSpan span(spans, "probe.world_checkpointed");
      result = androne::RunFleetWorld(checkpointed, ctx);
    }
    checkpointed_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    saved = result.recovery.checkpoints_saved;
    bytes = static_cast<double>(result.recovery.checkpoint_bytes);
  }
  const double delta_ms = Median(checkpointed_ms) - Median(plain_ms);
  table->Add("snapshot.checkpoint_us", saved > 0 ? delta_ms * 1e3 / saved : 0,
             "us", static_cast<size_t>(reps),
             "world wall delta per checkpoint saved");
  table->Add("snapshot.checkpoint_kb", bytes / 1024, "KiB", 1);
}

}  // namespace

void RunProbes(uint64_t seed, bool smoke, const WorldCounts& counts,
               SpanLog* spans, MetricTable* table) {
  const int64_t scale = smoke ? 1 : 10;
  std::vector<std::pair<std::string, double>> per_tick;
  {
    ScopedSpan span(spans, "probe.flight");
    FlightProbes(seed, static_cast<int>(2000 * scale), table, &per_tick);
  }
  double tick_ns, oneshot_ns, gaussian_ns, encode_ns, vpn_ns, record_ns,
      percentile_ns, plan_ms;
  {
    ScopedSpan span(spans, "probe.clock");
    tick_ns = ClockTickNs(20000 * scale);
    oneshot_ns = ClockOneShotNs(seed, 20000 * scale);
  }
  {
    ScopedSpan span(spans, "probe.rng");
    gaussian_ns = GaussianNs(seed, 50000 * scale);
  }
  {
    ScopedSpan span(spans, "probe.mav_net");
    encode_ns = MavEncodeNs(20000 * scale);
    vpn_ns = VpnSendNs(seed, 2000 * scale);
  }
  {
    ScopedSpan span(spans, "probe.obs");
    record_ns = HistRecordNs(seed, 20000 * scale);
    percentile_ns = HistPercentileNs(seed, 2000 * scale);
  }
  {
    ScopedSpan span(spans, "probe.cloud");
    plan_ms = PlanMs(seed, smoke ? 1 : 4);
  }
  table->Add("clock.tick_ns", tick_ns, "ns", kReps,
             "400 Hz reschedule + RunNext, 64 pending, isolated");
  table->Add("clock.oneshot_ns", oneshot_ns, "ns", kReps,
             "schedule (+1/4 cancel) + RunNext, 150 pending, isolated");
  table->Add("rng.gaussian_ns", gaussian_ns, "ns", kReps, "isolated");
  table->Add("mav.encode_ns", encode_ns, "ns", kReps,
             "pack + encode one frame, isolated");
  table->Add("net.vpn_send_ns", vpn_ns, "ns", kReps,
             "VPN send through LTE delivery, isolated");
  table->Add("obs.hist_record_ns", record_ns, "ns", kReps, "isolated");
  table->Add("obs.hist_percentile_ns", percentile_ns, "ns", kReps,
             "1200 samples, isolated");
  table->Add("cloud.plan_ms", plan_ms, "ms", kReps,
             "2 stops, 200 iterations, isolated");
  {
    ScopedSpan span(spans, "probe.snapshot");
    CheckpointProbe(seed, smoke ? 1 : 3, spans, table);
  }

  // share_est = ns per call x calls per world / world wall.
  const double world_ns = counts.world_ms * 1e6;
  const auto share = [&](const std::string& name, double ns, double calls) {
    table->Add(name + ".share_est", world_ns > 0 ? ns * calls / world_ns : 0,
               "ratio", kReps, "estimate from isolated calls");
  };
  share("clock.tick_ns", tick_ns, counts.events);
  for (const auto& [name, ns] : per_tick) {
    // Replay skips every per-tick stage but the safety supervisor.
    const bool runs = counts.continuous_plane || name == "flight.safety_ns";
    share(name, ns, runs ? counts.fast_loops : 0);
  }
  share("mav.encode_ns", encode_ns, counts.wire_frames);
  share("net.vpn_send_ns", vpn_ns, counts.downlink_frames);
}

}  // namespace perfbench
