#include "detect/registry.hpp"

#include "detect/lane_brodley.hpp"
#include "detect/lookahead_pairs.hpp"
#include "detect/stide.hpp"
#include "util/error.hpp"

namespace adiv {

std::vector<DetectorKind> paper_detectors() {
    return {DetectorKind::LaneBrodley, DetectorKind::Markov, DetectorKind::Stide,
            DetectorKind::NeuralNet};
}

std::vector<DetectorKind> all_detectors() {
    return {DetectorKind::Stide,       DetectorKind::Markov,
            DetectorKind::LaneBrodley, DetectorKind::NeuralNet,
            DetectorKind::TStide,      DetectorKind::Hmm,
            DetectorKind::Rule,        DetectorKind::LookaheadPairs};
}

std::string to_string(DetectorKind kind) {
    switch (kind) {
        case DetectorKind::Stide: return "stide";
        case DetectorKind::TStide: return "t-stide";
        case DetectorKind::Markov: return "markov";
        case DetectorKind::LaneBrodley: return "lane-brodley";
        case DetectorKind::NeuralNet: return "neural-net";
        case DetectorKind::Hmm: return "hmm";
        case DetectorKind::Rule: return "rule";
        case DetectorKind::LookaheadPairs: return "lookahead-pairs";
    }
    ADIV_UNREACHABLE("unhandled detector kind");
}

DetectorKind detector_kind_from_string(const std::string& name) {
    for (DetectorKind kind : all_detectors()) {
        if (to_string(kind) == name) return kind;
    }
    throw InvalidArgument("unknown detector kind: " + name);
}

std::unique_ptr<SequenceDetector> make_detector(DetectorKind kind,
                                                std::size_t window_length,
                                                const DetectorSettings& settings) {
    switch (kind) {
        case DetectorKind::Stide:
            return std::make_unique<StideDetector>(window_length);
        case DetectorKind::TStide:
            return std::make_unique<TstideDetector>(window_length, settings.tstide);
        case DetectorKind::Markov:
            return std::make_unique<MarkovDetector>(window_length, settings.markov);
        case DetectorKind::LaneBrodley:
            return std::make_unique<LaneBrodleyDetector>(window_length);
        case DetectorKind::NeuralNet:
            return std::make_unique<NnDetector>(window_length, settings.nn);
        case DetectorKind::Hmm:
            return std::make_unique<HmmDetector>(window_length, settings.hmm);
        case DetectorKind::Rule:
            return std::make_unique<RuleDetector>(window_length, settings.rule);
        case DetectorKind::LookaheadPairs:
            return std::make_unique<LookaheadPairsDetector>(window_length);
    }
    ADIV_UNREACHABLE("unhandled detector kind");
}

DetectorFactory factory_for(DetectorKind kind, DetectorSettings settings) {
    return [kind, settings](std::size_t window_length) {
        return make_detector(kind, window_length, settings);
    };
}

}  // namespace adiv
