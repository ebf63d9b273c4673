// Test helper: the invariant violations (sim/check.h) of a collector's
// artifact, through the same serialize -> parse -> check path a bench takes
// for --json.
#pragma once

#include <string>
#include <vector>

#include "sim/check.h"
#include "sim/json_parse.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {

inline std::vector<std::string> artifact_violations(const Telemetry& tel) {
  std::string err;
  const JsonValue doc = JsonParser::parse(tel.json("test"), &err);
  if (!err.empty()) return {"parse error: " + err};
  return check_artifact(doc);
}

}  // namespace tsxhpc::sim
