// Detector registry: one place that knows how to construct each detector
// kind, so the evaluation harness, benches, and examples configure detectors
// uniformly.
#pragma once

#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "detect/hmm_detector.hpp"
#include "detect/markov.hpp"
#include "detect/nn_detector.hpp"
#include "detect/rule_detector.hpp"
#include "detect/tstide.hpp"

namespace adiv {

enum class DetectorKind {
    // The four detectors of the study (Section 5.2).
    Stide,
    Markov,
    LaneBrodley,
    NeuralNet,
    // Extension detectors from the study's reference list (Warrender 1999).
    TStide,
    Hmm,
    Rule,
    LookaheadPairs,
};

/// Every detector kind this library implements, in a stable order.
std::vector<DetectorKind> all_detectors();

/// The four detectors of the study, in the paper's presentation order
/// (Figures 3-6 are L&B, Markov, Stide, NN; this list is construction order).
std::vector<DetectorKind> paper_detectors();

/// Stable identifier ("stide", "markov", ...).
std::string to_string(DetectorKind kind);

/// Inverse of to_string. Throws InvalidArgument for unknown names.
DetectorKind detector_kind_from_string(const std::string& name);

/// Per-kind settings consumed by make_detector.
struct DetectorSettings {
    TstideConfig tstide;
    MarkovConfig markov;
    NnDetectorConfig nn;
    HmmDetectorConfig hmm;
    RuleDetectorConfig rule;
};

/// Constructs a detector of the given kind for window length `window_length`.
std::unique_ptr<SequenceDetector> make_detector(DetectorKind kind,
                                                std::size_t window_length,
                                                const DetectorSettings& settings = {});

/// Factory closure over (kind, settings) for the evaluation harness.
DetectorFactory factory_for(DetectorKind kind, DetectorSettings settings = {});

}  // namespace adiv
