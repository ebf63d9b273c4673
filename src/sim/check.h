// The artifact invariant checker (DESIGN.md §4.2): the reconciliation rules
// the counters of a tsxhpc-telemetry-v7 artifact obey.
#pragma once

#include <string>
#include <vector>

#include "sim/json_parse.h"

namespace tsxhpc::sim {

/// Checks a tsxhpc-telemetry-v7 artifact, or every cell of a tsxhpc-sweep-v1
/// grid. Returns one located message per violation, e.g.
/// "runs[genome/tsx/t4] threads[2]: cycles.total (9) != end_cycle (10)".
std::vector<std::string> check_artifact(const JsonValue& doc);

}  // namespace tsxhpc::sim
