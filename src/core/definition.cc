#include "src/core/definition.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "src/services/permissions.h"

namespace androne {

namespace {

StatusOr<std::vector<std::string>> ReadStringArray(const JsonValue& root,
                                                   const std::string& key) {
  std::vector<std::string> out;
  const JsonValue* value = root.Find(key);
  if (value == nullptr) {
    return out;  // Absent is an empty list.
  }
  if (!value->is_array()) {
    return InvalidArgumentError("'" + key + "' must be an array");
  }
  for (const JsonValue& item : value->AsArray()) {
    if (!item.is_string()) {
      return InvalidArgumentError("'" + key + "' entries must be strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

}  // namespace

StatusOr<VirtualDroneDefinition> VirtualDroneDefinition::FromJson(
    const std::string& json) {
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return InvalidArgumentError("definition must be a JSON object");
  }
  VirtualDroneDefinition def;
  def.id = root.GetStringOr("id", "");
  def.owner = root.GetStringOr("owner", "");

  const JsonValue* waypoints = root.Find("waypoints");
  if (waypoints == nullptr || !waypoints->is_array()) {
    return InvalidArgumentError("definition needs a 'waypoints' array");
  }
  for (const JsonValue& wp : waypoints->AsArray()) {
    if (!wp.is_object()) {
      return InvalidArgumentError("waypoint entries must be objects");
    }
    WaypointSpec spec;
    spec.point.latitude_deg = wp.GetNumberOr("latitude", 360.0);
    spec.point.longitude_deg = wp.GetNumberOr("longitude", 360.0);
    spec.point.altitude_m = wp.GetNumberOr("altitude", 0.0);
    spec.max_radius_m = wp.GetNumberOr("max-radius", 30.0);
    if (spec.point.latitude_deg > 90 || spec.point.latitude_deg < -90 ||
        spec.point.longitude_deg > 180 || spec.point.longitude_deg < -180) {
      return InvalidArgumentError("waypoint has invalid coordinates");
    }
    def.waypoints.push_back(spec);
  }

  def.max_duration_s = root.GetNumberOr("max-duration", 600.0);
  def.energy_allotted_j = root.GetNumberOr("energy-allotted", 45000.0);
  ASSIGN_OR_RETURN(def.continuous_devices,
                   ReadStringArray(root, "continuous-devices"));
  ASSIGN_OR_RETURN(def.waypoint_devices,
                   ReadStringArray(root, "waypoint-devices"));
  ASSIGN_OR_RETURN(def.apps, ReadStringArray(root, "apps"));
  const JsonValue* args = root.Find("app-args");
  def.app_args = args != nullptr ? *args : JsonValue(JsonObject{});
  RETURN_IF_ERROR(def.Validate());
  return def;
}

std::string VirtualDroneDefinition::ToJson() const {
  // Streams the fields in the sorted-key order a JsonObject would dump
  // them in, so the stored text equals the canonical DumpPretty form.
  std::string out;
  JsonWriter w(out, /*pretty=*/true);
  auto strings = [&w](std::string_view key,
                      const std::vector<std::string>& values) {
    w.Key(key);
    w.BeginArray();
    for (const std::string& s : values) {
      w.String(s);
    }
    w.EndArray();
  };
  w.BeginObject();
  w.Key("app-args");
  w.Value(app_args);
  strings("apps", apps);
  strings("continuous-devices", continuous_devices);
  w.Key("energy-allotted");
  w.Number(energy_allotted_j);
  if (!id.empty()) {
    w.Key("id");
    w.String(id);
  }
  w.Key("max-duration");
  w.Number(max_duration_s);
  if (!owner.empty()) {
    w.Key("owner");
    w.String(owner);
  }
  strings("waypoint-devices", waypoint_devices);
  w.Key("waypoints");
  w.BeginArray();
  for (const WaypointSpec& wp : waypoints) {
    w.BeginObject();
    w.Key("altitude");
    w.Number(wp.point.altitude_m);
    w.Key("latitude");
    w.Number(wp.point.latitude_deg);
    w.Key("longitude");
    w.Number(wp.point.longitude_deg);
    w.Key("max-radius");
    w.Number(wp.max_radius_m);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out;
}

Status VirtualDroneDefinition::Validate() const {
  if (waypoints.empty()) {
    return InvalidArgumentError("definition needs at least one waypoint");
  }
  // A non-finite number would serialize as inf or nan, which is not JSON.
  if (!std::isfinite(max_duration_s) || !std::isfinite(energy_allotted_j)) {
    return InvalidArgumentError("allotments must be finite");
  }
  if (max_duration_s <= 0 || energy_allotted_j <= 0) {
    return InvalidArgumentError("allotments must be positive");
  }
  for (const WaypointSpec& wp : waypoints) {
    if (!std::isfinite(wp.max_radius_m) ||
        !std::isfinite(wp.point.latitude_deg) ||
        !std::isfinite(wp.point.longitude_deg) ||
        !std::isfinite(wp.point.altitude_m)) {
      return InvalidArgumentError("waypoint numbers must be finite");
    }
    if (wp.max_radius_m <= 0) {
      return InvalidArgumentError("waypoint max-radius must be positive");
    }
  }
  for (const std::string& device : continuous_devices) {
    if (!DeviceToPermission(device).has_value()) {
      return InvalidArgumentError("unknown continuous device '" + device + "'");
    }
    if (device == kDeviceFlightControl) {
      // Paper §3: "Flight control can only be specified as a waypoint
      // device, not a continuous device."
      return InvalidArgumentError(
          "flight-control cannot be a continuous device");
    }
  }
  for (const std::string& device : waypoint_devices) {
    if (!DeviceToPermission(device).has_value()) {
      return InvalidArgumentError("unknown waypoint device '" + device + "'");
    }
  }
  return OkStatus();
}

bool VirtualDroneDefinition::WantsDevice(const std::string& device) const {
  return std::find(waypoint_devices.begin(), waypoint_devices.end(), device) !=
             waypoint_devices.end() ||
         WantsDeviceContinuously(device);
}

bool VirtualDroneDefinition::WantsDeviceContinuously(
    const std::string& device) const {
  return std::find(continuous_devices.begin(), continuous_devices.end(),
                   device) != continuous_devices.end();
}

bool VirtualDroneDefinition::WantsFlightControl() const {
  return std::find(waypoint_devices.begin(), waypoint_devices.end(),
                   kDeviceFlightControl) != waypoint_devices.end();
}

}  // namespace androne
