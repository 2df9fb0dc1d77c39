// The figure binaries' stdout rendering of a plan run.
#pragma once

#include <iosfwd>

#include "engine/scheduler.hpp"

namespace adiv {

/// Writes, for each map in plan order, a "==== Performance map: NAME ===="
/// banner, the map's train/score seconds, the ASCII chart, the outcome
/// counts and a `-- csv --` block; then one `# plan:` summary line.
void render_plan_run(std::ostream& out, const PlanRun& run);

}  // namespace adiv
