// The serve workloads: a fresh adiv_serve child per run, serving models the
// benchmark trains on its seed's corpus, driven over TCP by kConnections
// sessions. A traced run also replays the same frames in-process, layer by
// layer, to set the in-process rungs beside the daemon's CPU per event.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/online.hpp"
#include "datagen/corpus.hpp"
#include "detect/registry.hpp"
#include "io/model_io.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 7;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;
/// Events the traced run replays in-process per pass.
constexpr std::size_t kLadderEvents = 1'000'000;

using SharedModels = std::map<std::string, std::shared_ptr<adiv::SequenceDetector>>;

ModelMap read_only(const SharedModels& models) {
    return ModelMap(models.begin(), models.end());
}

SharedModels timed(const SharedModels& models) {
    SharedModels out;
    for (const auto& [name, model] : models)
        out[name] = std::make_shared<TimedDetector>(model);
    return out;
}

bool fused(const ServeWorkload& workload) { return workload.models.size() > 1; }

/// "<kind>/<DW>", the name the daemon registers a model file under.
std::string model_name(const adiv::SequenceDetector& model) {
    return model.name() + "/" + std::to_string(model.window_length());
}

std::size_t ladder_scripts(const ServeWorkload& workload) {
    const std::size_t per_script = kFramesPerSession * workload.frame_events;
    return std::clamp<std::size_t>(kLadderEvents / per_script, 1, workload.scripts);
}

/// The daemon's request path without its threads and sockets: decode ->
/// SessionManager::handle_into -> encode, one session per script. Checks
/// every encoded reply against the script; returns the wall time less the
/// companions' time.
///
/// With companions (traced passes), the scorers a session runs are driven
/// beside it, frame by frame, each under its own push_batch span just
/// before the frame's handle span: a scorer of the session's kind, and for
/// an ensemble each member alone. Each rung is then read off the same
/// frames at the same moment as the call it is subtracted from.
double session_replay(const ServeWorkload& workload, const Traffic& traffic,
                      const ModelMap& models, bool companions, Result& result) {
    SpanRecorder& spans = recorder();
    const std::uint32_t open_span = spans.name_id("serve.open");
    const std::uint32_t decode_span = spans.name_id("serve.decode");
    const std::uint32_t handle_span = spans.name_id("serve.handle");
    const std::uint32_t encode_span = spans.name_id("serve.encode");
    const std::uint32_t scorer_span =
        spans.name_id(fused(workload) ? "fusion.push_batch" : "core.push_batch");
    const std::uint32_t member_span = spans.name_id("core.push_batch");
    adiv::MetricsRegistry metrics;
    adiv::serve::ModelCatalog catalog;
    for (const auto& [name, model] : models) catalog.add(name, model);
    adiv::serve::SessionManager sessions(
        catalog, adiv::serve::SessionConfig{0, 64, kDaemonJobs}, metrics);
    adiv::serve::FrameDecoder decoder;
    adiv::serve::Request request;
    adiv::serve::Response response;
    std::string payload;
    std::string frame;
    std::vector<double> scores;
    std::uint64_t mismatches = 0;
    Clock::duration companion_time{};
    const std::size_t scripts = ladder_scripts(workload);
    const Clock::time_point start = Clock::now();
    for (std::size_t s = 0; s < scripts; ++s) {
        const Script& script = traffic.scripts[s];
        std::unique_ptr<SessionScorer> companion;
        std::vector<adiv::OnlineScorer> members;
        if (companions) {
            companion = std::make_unique<SessionScorer>(workload.target, models);
            if (fused(workload))
                for (const auto& [name, model] : models) members.emplace_back(*model);
        }
        std::uint64_t id = 0;
        {
            const Span span(open_span);
            id = sessions.open(workload.target).session_id;
        }
        for (std::size_t f = 0; f < kFramesPerSession; ++f) {
            {
                const Span span(decode_span, workload.frame_events);
                decoder.feed(script.requests[f]);
                adiv::serve::parse_request_into(*decoder.next_view(), request);
            }
            if (companions) {
                const Clock::time_point before = Clock::now();
                const adiv::Symbol* events = script.events.data() + f * workload.frame_events;
                {
                    scores.clear();
                    const Span span(scorer_span, workload.frame_events);
                    companion->push_batch(events, workload.frame_events, scores);
                }
                for (adiv::OnlineScorer& member : members) {
                    scores.clear();
                    const Span span(member_span, workload.frame_events);
                    member.push_batch(events, workload.frame_events, scores);
                }
                companion_time += Clock::now() - before;
            }
            {
                const Span span(handle_span, workload.frame_events);
                sessions.handle_into(id, request, response);
            }
            {
                const Span span(encode_span, workload.frame_events);
                adiv::serve::serialize_into(response, payload);
                adiv::serve::encode_frame_into(payload, frame);
            }
            if (payload != script.replies[f]) ++mismatches;
        }
        request.type = adiv::serve::RequestType::Close;
        sessions.handle_into(id, request, response);
    }
    const Clock::duration wall = Clock::now() - start - companion_time;
    result.check_many(scripts * kFramesPerSession, mismatches,
                      "in-process reply differs from the serial replay");
    return std::chrono::duration<double>(wall).count();
}

/// The layer ladder: in-process rungs per event, and what the daemon spends
/// beyond them (threads, syscalls, wakeups) as the unattributed rest.
void serve_ladder(const ServeWorkload& workload, const Traffic& traffic,
                  const SharedModels& models, double daemon_cpu_ns, Result& result) {
    SpanRecorder& spans = recorder();
    const ModelMap plain = read_only(models);
    const ModelMap traced = read_only(timed(models));
    // Plain and traced passes alternate; their ratio is the tracing overhead.
    constexpr int kPasses = 2;
    double plain_s = 0.0;
    double traced_s = 0.0;
    spans.set_phase("ladder");
    for (int pass = 0; pass < kPasses; ++pass) {
        spans.set_enabled(false);
        plain_s += session_replay(workload, traffic, plain, false, result);
        spans.set_enabled(true);
        traced_s += session_replay(workload, traffic, traced, true, result);
    }

    const auto events = static_cast<double>(kPasses * ladder_scripts(workload) *
                                            kFramesPerSession * workload.frame_events);
    const auto self = spans.self_times("ladder", /*by_parent=*/true);
    const auto per_event = [&](const std::string& key) {
        const auto it = self.find(key);
        return it == self.end() ? 0.0 : it->second.self_ns / events;
    };
    auto& layer = result.per_layer;
    double rungs = 0.0;
    for (const adiv::DetectorKind kind : workload.models) {
        const std::string name = adiv::to_string(kind);
        const double kernel = per_event("serve.handle>detect.score." + name);
        layer["detect.score_ns_per_event." + name] = kernel;
        rungs += kernel;
    }
    // Self times: a plain scorer's push_batch less its kernel is the
    // OnlineScorer's own work; the ensemble's less that is fusion's; the
    // session's handle_into less the scorer's is the session's.
    const double online = per_event("core.push_batch");
    const double fusion = fused(workload) ? per_event("fusion.push_batch") - online : 0.0;
    const double session = per_event("serve.handle") - online - fusion;
    layer["core.online_self_ns_per_event"] = online;
    layer["fusion.self_ns_per_event"] = fusion;
    layer["serve.session_self_ns_per_event"] = session;
    layer["serve.decode_ns_per_event"] = per_event("serve.decode");
    layer["serve.encode_ns_per_event"] = per_event("serve.encode");
    const auto open = self.find("serve.open");
    layer["serve.open_us"] =
        open == self.end() ? 0.0 : open->second.total_ns / static_cast<double>(open->second.count) * 1e-3;
    rungs += online + fusion + session + layer["serve.decode_ns_per_event"] +
             layer["serve.encode_ns_per_event"];
    layer["serve.daemon_cpu_ns_per_event"] = daemon_cpu_ns;
    layer["serve.unattributed_ns_per_event"] = daemon_cpu_ns - rungs;
    layer["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0;

    std::printf("layer ladder (ns per event; in-process rungs, then the daemon):\n");
    for (const adiv::DetectorKind kind : workload.models)
        std::printf("  kernel %-14s %10.1f\n", adiv::to_string(kind).c_str(),
                    layer["detect.score_ns_per_event." + adiv::to_string(kind)]);
    std::printf("  scorer (self)         %10.1f\n", online);
    if (fused(workload)) std::printf("  fusion (self)         %10.1f\n", fusion);
    std::printf("  session (self)        %10.1f\n", session);
    std::printf("  decode                %10.1f\n", layer["serve.decode_ns_per_event"]);
    std::printf("  encode                %10.1f\n", layer["serve.encode_ns_per_event"]);
    std::printf("  = in-process          %10.1f\n", rungs);
    std::printf("  daemon cpu            %10.1f\n", daemon_cpu_ns);
    std::printf("  unattributed          %10.1f\n", daemon_cpu_ns - rungs);
}

}  // namespace

Result run_serve(const Options& options) {
    const ServeWorkload& workload = serve_workload(options.workload);
    Result result;
    auto& layer = result.per_layer;

    adiv::CorpusSpec spec;
    spec.seed = options.seed;
    Clock::time_point start = Clock::now();
    const adiv::TrainingCorpus corpus = adiv::TrainingCorpus::generate(spec);
    layer["datagen.corpus_s"] = seconds_between(start, Clock::now());
    Traffic traffic = draw_traffic(workload, corpus, options.seed);

    // Set-up, seven times over, each with a fresh daemon: train and save the
    // served models, start the daemon until it listens, open every session
    // in a fixed order. The last daemon is the one measured.
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> train_s;
    std::vector<std::string> files;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<LoadGenerator> load;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        load.reset();
        if (daemon) result.check(daemon->stop(), "adiv_serve did not drain and exit 0");
        daemon.reset();
        start = Clock::now();
        files.clear();
        std::string model_list;
        for (const adiv::DetectorKind kind : workload.models) {
            const Clock::time_point train_start = Clock::now();
            const auto model = adiv::make_detector(kind, kWindow);
            model->train(corpus.training());
            train_s[adiv::to_string(kind)].push_back(seconds_between(train_start, Clock::now()));
            files.push_back(options.workdir + "/" + adiv::to_string(kind) + ".adiv");
            adiv::save_detector_file(*model, files.back());
            model_list += (model_list.empty() ? "" : ",") + files.back();
        }
        daemon = std::make_unique<Daemon>(
            options.daemon,
            std::vector<std::string>{"--model", model_list, "--jobs",
                                     std::to_string(kDaemonJobs), "--port", "0"},
            options.workdir + "/adiv_serve.log");
        load = std::make_unique<LoadGenerator>(traffic, workload, daemon->port(), result);
        load->open_sessions();
        setup_s.push_back(seconds_between(start, Clock::now()));
        // A daemon that cannot open sessions has nothing to measure.
        if (result.failed > 0) throw std::runtime_error("set-up failed: " + result.failures[0]);
    }
    for (const auto& [name, seconds] : train_s) layer["detect.train_s." + name] = median(seconds);

    // The served models as the daemon loaded them fix every expected reply.
    start = Clock::now();
    SharedModels models;
    for (const std::string& file : files) {
        std::shared_ptr<adiv::SequenceDetector> model = adiv::load_detector_file(file);
        models[model_name(*model)] = std::move(model);
    }
    layer["io.model_load_s"] = seconds_between(start, Clock::now());
    const ModelMap served = read_only(models);
    replay_traffic(traffic, workload, served);
    layer["traffic.alarm_share"] = traffic.alarm_share;
    layer["traffic.novel_window_share"] = traffic.novel_window_share;
    result.check(traffic.alarm_share <= workload.alarm_share_max,
                 "alarm share " + std::to_string(traffic.alarm_share) +
                     " outside the declared band");
    result.check(traffic.novel_window_share >= workload.novel_share_min &&
                     traffic.novel_window_share <= workload.novel_share_max,
                 "novel-window share " + std::to_string(traffic.novel_window_share) +
                     " outside the declared band");
    std::printf("%s: %zu scripts, %llu events; alarm share %.5f, novel-window share %.5f\n",
                workload.name.c_str(), traffic.scripts.size(),
                static_cast<unsigned long long>(traffic.events()), traffic.alarm_share,
                traffic.novel_window_share);

    // The run's seconds are cut into one-second slices, alternating open
    // loop and capacity, so both see the same host; each metric is the
    // median over its slices, which a stall in one slice does not move.
    const auto slices = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(options.seconds / (2 * kSliceSeconds))));
    std::vector<Phase> phases = {{"warm-up", kWarmupSeconds, 0.0, workload.in_flight}};
    for (std::size_t i = 0; i < slices; ++i) {
        phases.push_back({"open loop", kSliceSeconds, workload.rate_eps, 0});
        phases.push_back({"capacity", kSliceSeconds, 0.0, workload.in_flight});
    }
    const std::vector<PhaseStats> stats = load->run(phases, daemon->pid());
    const double rss_mb = proc_status_field(daemon->pid(), "VmHWM") / 1024.0;
    layer["serve.threads"] = proc_status_field(daemon->pid(), "Threads");
    load->finish();
    load.reset();
    result.check(daemon->stop(), "adiv_serve did not drain and exit 0");
    daemon.reset();

    std::vector<double> p50_ms, capacity_eps, cpu_us_per_event, latency, lateness;
    double open_events = 0.0;
    double check_ns = 0.0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const PhaseStats& slice = stats[p];
        const auto events = static_cast<double>(slice.events);
        std::printf("%-9s %6.3f s  %9.0f events  %9.0f events/s  daemon cpu %.2f s\n",
                    phases[p].name.c_str(), slice.seconds, events, events / slice.seconds,
                    slice.daemon_cpu_s);
        result.check(slice.events > 0, phases[p].name + " slice completed no events");
        if (p == 0 || slice.events == 0) continue;
        if (phases[p].rate_eps > 0.0) {
            std::vector<double> slice_latency = slice.latency_ms;
            p50_ms.push_back(quantile(slice_latency, 0.5));
            cpu_us_per_event.push_back(slice.daemon_cpu_s / events * 1e6);
            latency.insert(latency.end(), slice.latency_ms.begin(), slice.latency_ms.end());
            lateness.insert(lateness.end(), slice.lateness_ms.begin(), slice.lateness_ms.end());
            open_events += events;
            check_ns += slice.check_ns;
        } else {
            capacity_eps.push_back(events / slice.seconds);
        }
    }
    const double capacity = median(capacity_eps);
    result.end_to_end["setup_s"] = median(setup_s);
    // The batch view of capacity: the time to serve the whole script pool.
    result.end_to_end["maps_s"] = static_cast<double>(traffic.events()) / capacity;
    result.end_to_end["p50_ms"] = median(p50_ms);
    result.end_to_end["capacity_eps"] = capacity;
    result.end_to_end["server_cpu_us_per_event"] = median(cpu_us_per_event);
    result.end_to_end["peak_rss_mb"] = rss_mb;
    layer["gen.samples"] = static_cast<double>(latency.size());
    layer["gen.p90_ms"] = quantile(latency, 0.9);
    layer["gen.p99_ms"] = quantile(latency, 0.99);
    layer["gen.late_p99_ms"] = quantile(lateness, 0.99);
    layer["gen.decode_ns_per_event"] = check_ns / std::max(open_events, 1.0);
    std::printf("open loop: %zu samples  p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  "
                "generator late p99 %.4f ms, max %.4f ms\n",
                latency.size(), quantile(latency, 0.5), quantile(latency, 0.9),
                quantile(latency, 0.99), quantile(lateness, 0.99), quantile(lateness, 1.0));

    if (options.trace)
        serve_ladder(workload, traffic, models,
                     result.end_to_end["server_cpu_us_per_event"] * 1e3, result);
    std::error_code ignored;
    for (const std::string& file : files) std::filesystem::remove(file, ignored);
    return result;
}

}  // namespace perfbench
