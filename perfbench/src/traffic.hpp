// The serve workloads' declared traffic, generated from the seed, and the
// replies a serial replay says the daemon must send back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "datagen/corpus.hpp"
#include "detect/detector.hpp"
#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// Fixed for every serve workload: the daemon's scoring threads, the client
/// connections (one session each, reopened every kFramesPerSession frames)
/// and the detector window of every served model.
inline constexpr std::size_t kDaemonJobs = 2;
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kFramesPerSession = 256;
inline constexpr std::size_t kWindow = 6;

struct ServeWorkload {
    std::string name;
    std::vector<adiv::DetectorKind> models;  // each trained at kWindow
    std::string target;                      // what every session OPENs
    std::size_t frame_events = 0;            // events per PUSH
    double random_share = 0.0;               // events replaced by uniform draws
    double rate_eps = 0.0;       // open-loop phase: events/s over all connections
    std::size_t in_flight = 0;   // capacity phase: frames in flight per connection
    std::size_t scripts = 0;     // distinct session scripts generated per run
    // Declared input properties; a run whose traffic leaves them fails.
    double alarm_share_max = 0.0;
    double novel_share_min = 0.0;
    double novel_share_max = 0.0;
};

/// The workload of that name; throws for names that are not serve workloads.
const ServeWorkload& serve_workload(const std::string& name);

using ModelMap = std::map<std::string, std::shared_ptr<const adiv::SequenceDetector>>;

/// One session's traffic: kFramesPerSession PUSH frames, ready to write, with
/// the reply payload the daemon owes for each and the session counters after
/// each frame.
struct Script {
    adiv::Sequence events;
    std::vector<std::string> requests;  // framed PUSH requests
    std::vector<std::string> replies;   // expected SCORES payloads
    std::vector<adiv::serve::SessionCounts> counts;
};

struct Traffic {
    std::vector<Script> scripts;
    std::string opened_suffix;  // how every OPENED payload must end
    double alarm_share = 0.0;         // maximal responses / responses
    double novel_window_share = 0.0;  // DW-windows never seen in training

    [[nodiscard]] std::uint64_t events() const;
    /// Expected DRAINED / CLOSED payload after `frames` frames of a script.
    [[nodiscard]] std::string counts_reply(adiv::serve::ResponseType type,
                                           std::size_t script,
                                           std::size_t frames) const;
};

/// Draws every script from the corpus's own process: held-out streams of its
/// transition matrix, with the workload's share of events replaced by
/// uniform draws, cut into framed PUSH requests.
Traffic draw_traffic(const ServeWorkload& workload,
                     const adiv::TrainingCorpus& corpus, std::uint64_t seed);

/// Replays every script serially through a fresh scorer over `models` (the
/// served models, loaded from the files the daemon loads) to fix the replies
/// and counters, and measures the traffic's declared properties; the
/// served stide model tells which windows training never saw.
void replay_traffic(Traffic& traffic, const ServeWorkload& workload,
                    const ModelMap& models);


/// A fresh session scorer for an OPEN target, built as the daemon builds
/// one: an OnlineScorer for a model name, an EnsembleScorer for a spec.
class SessionScorer {
public:
    SessionScorer(const std::string& target, const ModelMap& models);

    std::size_t push_batch(const adiv::Symbol* events, std::size_t count,
                           std::vector<double>& out);
    [[nodiscard]] adiv::serve::SessionCounts counts() const;

private:
    std::optional<adiv::OnlineScorer> single_;
    std::unique_ptr<adiv::fusion::EnsembleScorer> fused_;
};

}  // namespace perfbench
