// Virtual drone definition (paper §3, Figure 2): the JSON specification
// that, together with a container image, fully defines a virtual drone —
// where it operates, its energy/time allotment, which devices it needs and
// when, and which apps run with which arguments. Self-contained, so it can
// be reinstated on any compatible hardware.
#ifndef SRC_CORE_DEFINITION_H_
#define SRC_CORE_DEFINITION_H_

#include <string>
#include <vector>

#include "src/util/geo.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace androne {

struct WaypointSpec {
  GeoPoint point;          // latitude / longitude / altitude.
  double max_radius_m = 30;  // Spherical geofence volume around the point.
};

struct VirtualDroneDefinition {
  std::string id;     // Assigned by the portal; VDR key.
  std::string owner;  // Ordering user.
  std::vector<WaypointSpec> waypoints;
  double max_duration_s = 600;       // Across all waypoints.
  double energy_allotted_j = 45000;  // Across all waypoints.
  std::vector<std::string> continuous_devices;
  std::vector<std::string> waypoint_devices;
  std::vector<std::string> apps;  // Package names to install.
  JsonValue app_args;             // { package: { arg-name: value } }.

  // Parses the Figure-2 JSON format.
  static StatusOr<VirtualDroneDefinition> FromJson(const std::string& json);
  // Pretty JSON with sorted keys: byte-identical to the DumpPretty of the
  // equivalent JsonValue tree.
  std::string ToJson() const;

  // Structural rules from the paper: at least one waypoint; positive
  // allotments; only known device names; flight-control may only be a
  // waypoint device, never continuous. Every number must also be finite,
  // since JSON cannot spell inf or NaN.
  Status Validate() const;

  bool WantsDevice(const std::string& device) const;
  bool WantsDeviceContinuously(const std::string& device) const;
  bool WantsFlightControl() const;
};

}  // namespace androne

#endif  // SRC_CORE_DEFINITION_H_
