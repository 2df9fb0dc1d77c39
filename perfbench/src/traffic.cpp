#include "traffic.hpp"

#include <algorithm>
#include <stdexcept>

#include "fusion/spec.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using adiv::DetectorKind;

// Rates are fixed here, never derived from a measured capacity: about a third
// of what the commit that added this benchmark sustained on a 4-core host
// (see perfbench/README.md).
const std::vector<ServeWorkload>& workloads() {
    static const std::vector<ServeWorkload> all = {
        {.name = "serve_small",
         .models = {DetectorKind::Stide},
         .target = "stide/6",
         .frame_events = 64,
         .random_share = 0.0,
         .rate_eps = 1.6e6,
         .in_flight = 8,
         .scripts = 64,
         .alarm_share_max = 0.005,
         .novel_share_min = 0.0,
         .novel_share_max = 0.005},
        {.name = "serve_fused",
         .models = {DetectorKind::Stide, DetectorKind::Markov,
                    DetectorKind::LaneBrodley, DetectorKind::NeuralNet},
         .target = "stide/6+markov/6+lane-brodley/6+neural-net/6;fuse=vote",
         .frame_events = 512,
         .random_share = 0.01,
         .rate_eps = 5.0e5,
         .in_flight = 4,
         .scripts = 16,
         .alarm_share_max = 0.2,
         .novel_share_min = 0.02,
         .novel_share_max = 0.10},
    };
    return all;
}

}  // namespace

const ServeWorkload& serve_workload(const std::string& name) {
    for (const ServeWorkload& workload : workloads())
        if (workload.name == name) return workload;
    throw std::invalid_argument("unknown serve workload '" + name + "'");
}

std::uint64_t Traffic::events() const {
    std::uint64_t total = 0;
    for (const Script& script : scripts) total += script.events.size();
    return total;
}

std::string Traffic::counts_reply(adiv::serve::ResponseType type, std::size_t script,
                                  std::size_t frames) const {
    adiv::serve::Response response;
    response.type = type;
    if (frames > 0) response.counts = scripts[script].counts[frames - 1];
    return adiv::serve::serialize(response);
}

SessionScorer::SessionScorer(const std::string& target, const ModelMap& models) {
    if (adiv::fusion::is_ensemble_spec(target)) {
        fused_ = adiv::fusion::make_ensemble_scorer(
            adiv::fusion::parse_ensemble_spec(target),
            [&models](const std::string& name) { return models.at(name); });
    } else {
        single_.emplace(*models.at(target));
    }
}

std::size_t SessionScorer::push_batch(const adiv::Symbol* events, std::size_t count,
                                      std::vector<double>& out) {
    return fused_ ? fused_->push_batch(events, count, out)
                  : single_->push_batch(events, count, out);
}

adiv::serve::SessionCounts SessionScorer::counts() const {
    if (fused_)
        return {fused_->events_consumed(), fused_->windows_scored(), fused_->alarms()};
    return {single_->events_consumed(), single_->windows_scored(), single_->alarms()};
}

Traffic draw_traffic(const ServeWorkload& workload, const adiv::TrainingCorpus& corpus,
                     std::uint64_t seed) {
    const std::size_t alphabet = corpus.spec().alphabet_size;
    const std::size_t per_script = kFramesPerSession * workload.frame_events;
    Traffic traffic;
    traffic.scripts.resize(workload.scripts);
    adiv::SplitMix64 seeds(seed ^ 0x7472616666696331ULL);  // "traffic1"
    for (Script& script : traffic.scripts) {
        const std::uint64_t script_seed = seeds.next();
        script.events = corpus.generate_heldout(per_script, script_seed).events();
        adiv::Rng draws(script_seed ^ 0x756e69666f726dULL);  // "uniform"
        for (adiv::Symbol& event : script.events)
            if (draws.chance(workload.random_share))
                event = static_cast<adiv::Symbol>(draws.below(alphabet));
        adiv::serve::Request push;
        push.type = adiv::serve::RequestType::Push;
        for (std::size_t f = 0; f < kFramesPerSession; ++f) {
            const auto first = script.events.begin() +
                               static_cast<std::ptrdiff_t>(f * workload.frame_events);
            push.events.assign(first, first + static_cast<std::ptrdiff_t>(
                                                  workload.frame_events));
            script.requests.push_back(
                adiv::serve::encode_frame(adiv::serve::serialize(push)));
        }
    }
    const std::string detector =
        adiv::fusion::is_ensemble_spec(workload.target)
            ? adiv::fusion::canonical(adiv::fusion::parse_ensemble_spec(workload.target))
            : workload.target.substr(0, workload.target.find('/'));
    traffic.opened_suffix = " " + detector + " " + std::to_string(kWindow) + " " +
                            std::to_string(alphabet);
    return traffic;
}

void replay_traffic(Traffic& traffic, const ServeWorkload& workload,
                    const ModelMap& models) {
    const adiv::SequenceDetector& novelty = *models.at("stide/" + std::to_string(kWindow));
    std::uint64_t windows = 0;
    std::uint64_t novel = 0;
    for (const Script& script : traffic.scripts)
        for (const double response :
             novelty.score(adiv::EventStream(novelty.alphabet_size(), script.events))) {
            ++windows;
            if (response >= adiv::kMaximalResponse) ++novel;
        }
    traffic.novel_window_share =
        static_cast<double>(novel) / static_cast<double>(std::max<std::uint64_t>(windows, 1));

    // One fresh scorer per session, one push_batch per frame, each frame's
    // scores serialized exactly as the daemon serializes them.
    std::uint64_t responses = 0;
    std::uint64_t alarms = 0;
    adiv::serve::Response reply;
    reply.type = adiv::serve::ResponseType::Scores;
    std::string payload;
    for (Script& script : traffic.scripts) {
        SessionScorer scorer(workload.target, models);
        script.replies.clear();
        script.counts.clear();
        for (std::size_t f = 0; f < kFramesPerSession; ++f) {
            reply.scores.clear();
            scorer.push_batch(script.events.data() + f * workload.frame_events,
                              workload.frame_events, reply.scores);
            adiv::serve::serialize_into(reply, payload);
            script.replies.push_back(payload);
            script.counts.push_back(scorer.counts());
        }
        responses += script.counts.back().windows;
        alarms += script.counts.back().alarms;
    }
    traffic.alarm_share =
        static_cast<double>(alarms) / static_cast<double>(std::max<std::uint64_t>(responses, 1));
}

}  // namespace perfbench
