#include "engine/render.hpp"

#include <cstdio>
#include <ostream>
#include <string>

namespace adiv {

namespace {

std::string fixed_seconds(double seconds) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.2f", seconds);
    return buffer;
}

std::string fixed_rate(double rate) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.1f", rate);
    return buffer;
}

}  // namespace

void render_plan_run(std::ostream& out, const PlanRun& run) {
    for (std::size_t d = 0; d < run.maps.size(); ++d) {
        const PerformanceMap& map = run.maps[d];
        out << "\n==== Performance map: " << map.detector_name() << " ====\n\n";
        out << "# train " << fixed_seconds(run.timings[d].train_seconds)
            << "s, score " << fixed_seconds(run.timings[d].score_seconds)
            << "s (aggregate across workers)\n\n";
        out << map.render() << '\n';
        out << "summary: capable=" << map.count(DetectionOutcome::Capable)
            << " weak=" << map.count(DetectionOutcome::Weak)
            << " blind=" << map.count(DetectionOutcome::Blind) << " of "
            << map.cell_count() << " cells\n\n";
        out << "-- csv --\n";
        map.write_csv(out);
    }
    const PlanSummary& summary = run.summary;
    out << "# plan: " << summary.cell_count << " cells, "
        << summary.detector_count << " detector(s), jobs=" << summary.jobs
        << ", " << fixed_seconds(summary.wall_seconds) << "s wall, "
        << fixed_rate(summary.cells_per_second) << " cells/s\n";
}

}  // namespace adiv
