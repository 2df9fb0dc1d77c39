// One cell of the map experiment (step 5 of the methodology): a trained
// detector scored on one suite test stream, its incident-span responses
// classified into the map cell.
//
// The whole experiment — train once per (detector, DW) column, score every
// anomaly size of that window — is the engine's ExperimentPlan / run_plan
// (engine/plan.hpp, engine/scheduler.hpp).
#pragma once

#include "anomaly/suite.hpp"
#include "core/perf_map.hpp"
#include "detect/detector.hpp"

namespace adiv {

/// Scores a single suite entry with an already trained detector. The
/// detector's window length must equal the entry's.
SpanScore score_entry(const SequenceDetector& detector,
                      const EvaluationSuite::Entry& entry);

}  // namespace adiv
