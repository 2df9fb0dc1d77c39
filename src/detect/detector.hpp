// The common shape of a sequence-based anomaly detector (Section 4.2).
//
// Every detector in the study consists of (1) a mechanism for modeling
// normal behaviour, acquired by sliding a fixed-length detector window (DW)
// over training data; (2) a similarity metric measuring how far a test
// window deviates from normal — the ONE component in which the four
// detectors differ; and (3) a user-set thresholding mechanism. The interface
// mirrors that decomposition: train() builds the normal model, score()
// emits one response in [0,1] per window position of the test stream
// (0 = completely normal, 1 = maximally anomalous), and thresholding is the
// caller's concern (core/response.hpp applies the paper's "threshold = 1"
// rule uniformly).
//
// Response alignment: score(test)[p] is the response for the window starting
// at element p, i.e. covering elements [p, p + DW). Detectors that predict a
// continuation (Markov, neural net) treat the window's first DW-1 elements
// as context and its last element as the predicted event, so their response
// for position p is about the same DW elements as Stide's and L&B's.
//
// Concurrency contract: train() (or a load_model()) is exclusive — no other
// call may run on the instance while it builds. After it returns, the model
// is immutable: score() reads only what train() or load_model() wrote, and
// keeps any scratch it needs local to the call. So score() and the const
// observers (name, window_length, alphabet_size) are safe to call
// concurrently from multiple threads on the same instance without a lock;
// the detection server's connections (src/serve), the experiment engine and
// adiv_score --jobs chunks rely on this to share one trained model. A
// detector holds no `mutable` members (the detector-mutable lint rule
// checks this under src/detect/).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "seq/stream.hpp"

namespace adiv {

class SequenceDetector {
public:
    virtual ~SequenceDetector() = default;

    /// Short stable identifier, e.g. "stide", "markov".
    [[nodiscard]] virtual std::string name() const = 0;

    /// The detector window size DW this instance was built for.
    [[nodiscard]] virtual std::size_t window_length() const = 0;

    /// Builds the normal-behaviour model from the training stream. May be
    /// called again to retrain from scratch.
    virtual void train(const EventStream& training) = 0;

    /// Alphabet size of the training stream. Throws before train().
    [[nodiscard]] virtual std::size_t alphabet_size() const = 0;

    /// Responses in [0,1], one per window position (test.window_count(DW)
    /// entries). Must be called after train(); throws otherwise. Safe for
    /// concurrent calls on a trained instance (see the concurrency contract
    /// in the file header).
    [[nodiscard]] virtual std::vector<double> score(const EventStream& test) const = 0;

    /// True when score(test)[p] depends only on the DW elements of window p —
    /// which lets callers score a stream in overlapping chunks and splice the
    /// responses (tools/adiv_score --jobs does exactly that). Detectors that
    /// condition on the whole prefix (e.g. the HMM's forward filter) return
    /// false and must be scored in one pass.
    [[nodiscard]] virtual bool window_local() const noexcept { return true; }

protected:
    SequenceDetector() = default;
    SequenceDetector(const SequenceDetector&) = default;
    SequenceDetector& operator=(const SequenceDetector&) = default;
};

/// Builds a detector for a given window length; the unit of configuration the
/// evaluation harness consumes.
using DetectorFactory =
    std::function<std::unique_ptr<SequenceDetector>(std::size_t window_length)>;

/// Response mapping shared by the probabilistic detectors (Markov, NN).
///
/// Their raw output is a continuation probability p: 0 = impossible
/// (maximally anomalous) and 1 = certain (normal). At the detector's
/// resolution, a continuation at or below the probability floor is
/// indistinguishable from impossible, so it scores a full 1.0 — this is how
/// the study's "detection threshold = 1" rule coexists with anomalies whose
/// every sub-sequence occurs (rarely) in training. The default floor is the
/// paper's own rarity cutoff of 0.5%; the response-policy ablation sweeps it.
struct ResponseQuantizer {
    double probability_floor = 0.005;

    [[nodiscard]] double response_for_probability(double p) const noexcept {
        if (p <= probability_floor) return 1.0;
        return 1.0 - p;
    }
};

/// Response value treated as "maximally anomalous" by classification; allows
/// for floating-point slack in detectors that compute 1.0 arithmetically.
inline constexpr double kMaximalResponse = 1.0 - 1e-9;

/// Responses at or below this are "completely normal".
inline constexpr double kZeroResponse = 1e-12;

}  // namespace adiv
