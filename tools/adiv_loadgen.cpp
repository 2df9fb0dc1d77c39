// adiv_loadgen: concurrent client load for a running adiv_serve daemon.
//
//   adiv_loadgen --port 7007 --model monitor.adiv --sessions 8 --verify
//
// Every session connects over TCP and replays an independently seeded
// stream (OPEN, batched PUSH, DRAIN, CLOSE, with every response collected
// and counted) drawn from the paper's cycle-plus-deviations transition
// matrix (falling back to uniform symbols for tiny alphabets). With
// --verify (needs --model so the same trained detector exists locally), the
// scores that came back over the wire are compared BIT-IDENTICALLY against
// a single-threaded replay of the same events — an OnlineScorer for a model
// target, a fusion::EnsembleScorer when --target is an ensemble spec such as
// "stide/6+markov/6;fuse=ds" (the members name --model files). DRAINED
// counters must match the client-side tallies exactly (no lost or
// duplicated responses). Any mismatch or session error makes the exit
// status nonzero; a clean verified run ends its summary line with
// "(verified bit-identical)".
//
// --scrape-http PORT scrapes the daemon's GET /metrics endpoint (its
// --metrics-port) concurrently with the load: a scraper thread pulls the
// OpenMetrics exposition twice mid-run, parses both, and fails the run when
// any counter moves backwards between scrapes (no curl needed in CI).
//
// Every client call is timed into a per-session mergeable quantile sketch
// (obs/sketch.hpp), so each run also reports client-side latency per verb
// (OPEN/PUSH/DRAIN/CLOSE, p50/p95/p99/max within the sketch's documented
// relative-error bound); sessions merge associatively, so the digest is
// independent of join order.
//
// --trace PATH turns on request tracing: every session gets a
// deterministic trace id derived from --seed, each OPEN/PUSH carries its
// trace context on the wire (serve/protocol.hpp), and the client-side verb
// spans stream to PATH. Against a daemon started with --trace, feed both
// files to `adiv_traceview --request <id>` to see one request's causal
// tree across the processes; the per-session ids are printed so the id is
// never guessed. --verify is unaffected: ids depend only on the seed.
//
// --dump pulls each session's flight recorder (DUMP verb) before CLOSE and
// fails the run if the dump does not replay as `seq=` records (the daemon
// must run with --profile).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "adiv.hpp"

using namespace adiv;

namespace {

struct LoadSpec {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t sessions = 8;
    std::size_t events_per_session = 125'000;
    std::size_t batch = 512;
    std::string target = "default";
    std::uint64_t seed = 20050628;
    bool verify = false;
    std::uint16_t scrape_port = 0;  // --scrape-http: GET /metrics mid-run
    bool dump = false;    // pull the flight recorder (DUMP) before CLOSE
    bool trace = false;   // mint per-session trace ids (--trace)
};

/// Deterministic per-session trace id: a pure function of (seed, session),
/// so a traced --verify run replays the same ids and the printed id can be
/// fed to `adiv_traceview --request` from a script. Never 0 (0 = untraced).
std::uint64_t session_trace_id(std::uint64_t seed, std::size_t index) {
    SplitMix64 mix(seed ^ 0x747261636564ULL);  // "traced"
    mix.next();
    SplitMix64 per(mix.next() + index);
    const std::uint64_t id = per.next();
    return id == 0 ? 1 : id;
}

struct SessionOutcome {
    std::size_t events = 0;
    std::size_t windows = 0;
    std::uint64_t alarms = 0;
    std::vector<std::string> errors;
    /// Client-side wall time of every protocol call, microseconds, keyed by
    /// verb in a mergeable quantile sketch. PUSH gets one sample per frame,
    /// the others one per session; traced calls leave their span as the
    /// tail exemplar.
    std::map<std::string, QuantileSketch> latency_us;
};

/// Per-session replay stream: the paper's cycle matrix when the alphabet can
/// host it, uniform symbols otherwise. Seeded per session so every session
/// (and the local verification replay) regenerates the same events.
Sequence make_session_stream(std::size_t alphabet, std::size_t length,
                             std::uint64_t seed) {
    Rng rng(seed);
    CorpusSpec spec;
    spec.alphabet_size = alphabet;
    try {
        const TransitionMatrix matrix = make_cycle_matrix(spec);
        const Symbol start = static_cast<Symbol>(rng.below(alphabet));
        return matrix.generate(length, start, rng).events();
    } catch (const InvalidArgument&) {
        Sequence events(length);
        for (auto& s : events) s = static_cast<Symbol>(rng.below(alphabet));
        return events;
    }
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Serial local replay of one session's events; returns the expected score
/// stream. Empty when --verify is off. A fresh scorer per call, so every
/// session replays from a clean state.
using ReplayFn = std::function<std::vector<double>(const Sequence&)>;

using ModelMap =
    std::map<std::string, std::shared_ptr<const SequenceDetector>>;

/// Builds the --verify replayer for an OPEN target over the locally loaded
/// models: ensemble specs replay through a fresh fusion::EnsembleScorer,
/// plain targets through a per-event OnlineScorer — both of which the
/// server's own scoring must match bit for bit. Both use the scorer's
/// default buffer, as the daemon's sessions do.
ReplayFn make_replayer(const std::string& target, const ModelMap& models) {
    const auto resolve = [&](const std::string& name) {
        const auto it = models.find(name);
        require(it != models.end(), "--verify: target member '" + name +
                                        "' is not among the --model files");
        return it->second;
    };
    if (fusion::is_ensemble_spec(target)) {
        const fusion::EnsembleSpec espec = fusion::parse_ensemble_spec(target);
        std::vector<std::shared_ptr<const SequenceDetector>> members;
        members.reserve(espec.members.size());
        for (const auto& name : espec.members) members.push_back(resolve(name));
        return [espec, members](const Sequence& events) {
            fusion::EnsembleScorer replay(espec, members);
            std::vector<double> expected;
            replay.push_batch(events.data(), events.size(), expected);
            return expected;
        };
    }
    const std::shared_ptr<const SequenceDetector> model = resolve(target);
    return [model](const Sequence& events) {
        OnlineScorer replay(*model);
        std::vector<double> expected;
        expected.reserve(events.size());
        for (const Symbol s : events)
            if (const auto r = replay.push(s)) expected.push_back(*r);
        return expected;
    };
}

/// One full session over its own TCP connection. Collects every score,
/// checks DRAIN/CLOSE counters, optionally replays locally.
SessionOutcome run_session(const LoadSpec& spec, std::size_t index,
                           const ReplayFn& local_replay) {
    SessionOutcome outcome;
    auto fail = [&](std::string what) {
        outcome.errors.push_back("session " + std::to_string(index) + ": " +
                                 std::move(what));
    };
    try {
        serve::Client client(serve::tcp_connect(spec.host, spec.port));
        const std::uint64_t trace =
            spec.trace ? session_trace_id(spec.seed, index) : 0;
        client.set_trace(trace);
        // Each timed call offers its wire span as an exemplar, so a scraped
        // tail latency names the spans behind it.
        const auto timed = [&](const char* verb, double seconds) {
            outcome.latency_us[verb].record(seconds * 1e6, trace,
                                            client.last_span_id());
        };
        Stopwatch call;
        const serve::OpenInfo info = client.open(spec.target);
        timed("OPEN", call.seconds());
        const Sequence events = make_session_stream(
            info.alphabet, spec.events_per_session, spec.seed + index);

        std::vector<double> scores;
        if (events.size() >= info.window)
            scores.reserve(events.size() - info.window + 1);
        QuantileSketch& push_latency = outcome.latency_us["PUSH"];
        for (std::size_t pos = 0; pos < events.size(); pos += spec.batch) {
            const std::size_t n = std::min(spec.batch, events.size() - pos);
            call.restart();
            const std::vector<double> batch_scores =
                client.push(SymbolView(events).subspan(pos, n));
            push_latency.record(call.seconds() * 1e6, trace,
                                client.last_span_id());
            scores.insert(scores.end(), batch_scores.begin(), batch_scores.end());
        }

        call.restart();
        const serve::SessionCounts drained = client.drain();
        timed("DRAIN", call.seconds());
        if (drained.events != events.size())
            fail("DRAINED events " + std::to_string(drained.events) +
                 ", pushed " + std::to_string(events.size()));
        if (drained.windows != scores.size())
            fail("DRAINED windows " + std::to_string(drained.windows) +
                 ", responses received " + std::to_string(scores.size()));
        if (spec.dump) {
            call.restart();
            const std::string dump = client.dump();
            timed("DUMP", call.seconds());
            // The ring replays newest-K events as `seq=...` lines; after a
            // full session it must hold something and parse as records. The
            // ring only fills while the server profiles, so an empty dump
            // means the daemon is missing --profile.
            if (dump.empty() || dump.rfind("seq=", 0) != 0)
                fail("DUMP returned no flight records (server running "
                     "without --profile?): '" +
                     dump.substr(0, dump.find('\n')) + "'");
        }
        call.restart();
        const serve::SessionCounts closed = client.close_session();
        timed("CLOSE", call.seconds());
        if (closed.windows != drained.windows || closed.events != drained.events)
            fail("CLOSED counters disagree with DRAINED");
        client.disconnect();

        if (spec.verify && local_replay) {
            if (!bit_identical(scores, local_replay(events)))
                fail("served scores differ from local serial replay");
        }

        outcome.events = events.size();
        outcome.windows = scores.size();
        outcome.alarms = drained.alarms;
    } catch (const std::exception& e) {
        fail(e.what());
    }
    return outcome;
}

/// Scrapes the daemon's GET /metrics twice while load runs: both
/// expositions must parse as OpenMetrics and every `_total` counter must be
/// monotone non-decreasing between the scrapes.
std::vector<std::string> scrape_http_check(const LoadSpec& spec) {
    std::vector<std::string> errors;
    try {
        const OpenMetricsDocument before =
            serve::scrape_metrics(spec.host, spec.scrape_port);
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        const OpenMetricsDocument after =
            serve::scrape_metrics(spec.host, spec.scrape_port);
        for (const auto& sample : before.samples) {
            if (!sample.name.ends_with("_total")) continue;
            const std::optional<double> later =
                after.value(sample.name, sample.labels);
            if (!later) {
                errors.push_back("scrape-http: counter " + sample.name +
                                 " vanished between scrapes");
            } else if (*later < sample.value) {
                errors.push_back("scrape-http: counter " + sample.name +
                                 " moved backwards (" +
                                 std::to_string(sample.value) + " -> " +
                                 std::to_string(*later) + ")");
            }
        }
    } catch (const std::exception& e) {
        errors.push_back(std::string("scrape-http: ") + e.what());
    }
    return errors;
}

struct RunResult {
    double seconds = 0.0;
    std::size_t total_events = 0;
    std::uint64_t total_alarms = 0;
    std::vector<std::string> errors;
    std::vector<std::string> scrape_errors;  // --scrape-http only
    /// Per-session sketches merged across every session, by verb. Merging
    /// is associative, so the digest is independent of session join order.
    std::map<std::string, QuantileSketch> latency_us;

    [[nodiscard]] double events_per_sec() const noexcept {
        return seconds > 0.0 ? static_cast<double>(total_events) / seconds : 0.0;
    }
};

/// Runs `spec.sessions` concurrent sessions, one TCP connection each.
RunResult run_load(const LoadSpec& spec, const ReplayFn& local_replay) {
    std::vector<SessionOutcome> outcomes(spec.sessions);
    RunResult result;
    Stopwatch sw;
    {
        std::vector<std::thread> threads;
        threads.reserve(spec.sessions);
        for (std::size_t i = 0; i < spec.sessions; ++i)
            threads.emplace_back([&, i] {
                outcomes[i] = run_session(spec, i, local_replay);
            });
        // The scraper rides alongside the load so the exposition is pulled
        // while counters are actually moving.
        std::thread scraper;
        if (spec.scrape_port != 0)
            scraper = std::thread(
                [&] { result.scrape_errors = scrape_http_check(spec); });
        for (auto& t : threads) t.join();
        if (scraper.joinable()) scraper.join();
    }
    result.seconds = sw.seconds();
    for (const auto& outcome : outcomes) {
        result.total_events += outcome.events;
        result.total_alarms += outcome.alarms;
        result.errors.insert(result.errors.end(), outcome.errors.begin(),
                             outcome.errors.end());
        for (const auto& [verb, sketch] : outcome.latency_us)
            result.latency_us[verb].merge_from(sketch);
    }
    return result;
}

/// One summary line per verb: sketch percentiles (within the documented
/// relative-error bound; max is exact) over every call the run made.
void print_latency_summary(const RunResult& result) {
    for (const auto& [verb, sketch] : result.latency_us) {
        const SketchSummary s = sketch.summary();
        std::printf("  client latency %-5s n=%-6llu p50=%.1fus p95=%.1fus "
                    "p99=%.1fus max=%.1fus\n",
                    verb.c_str(), static_cast<unsigned long long>(s.count),
                    s.p50, s.p95, s.p99, s.max);
    }
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("adiv_loadgen",
                  "concurrent client load against an adiv_serve daemon");
    cli.add_option("port", "0", "port of the running adiv_serve (required)");
    cli.add_option("host", "127.0.0.1", "server host");
    cli.add_option("model", "",
                   "trained model file(s), comma-separated: the local "
                   "--verify replay and its ensemble members");
    cli.add_option("sessions", "8", "concurrent client sessions");
    cli.add_option("events", "125000", "events pushed per session");
    cli.add_option("batch", "512", "events per PUSH frame");
    cli.add_option("target", "default",
                   "OPEN target: a model name, or an ensemble spec such as "
                   "\"stide/6+markov/6;fuse=ds\"");
    cli.add_option("seed", "20050628", "base seed; session i uses seed+i");
    cli.add_option("trace", "",
                   "request tracing: write client verb spans here, stamp "
                   "every OPEN/PUSH with a deterministic per-session trace "
                   "id, and print the ids for adiv_traceview --request");
    cli.add_flag("verify",
                 "bit-compare served scores against a local serial replay "
                 "(requires --model)");
    cli.add_option("scrape-http", "",
                   "GET /metrics twice mid-run from the daemon's "
                   "--metrics-port at this port; fail on unparseable "
                   "exposition or non-monotone counters");
    cli.add_flag("dump",
                 "pull each session's flight recorder (DUMP) before CLOSE; "
                 "fail unless it replays as seq= records (needs a profiling "
                 "server)");
    try {
        if (!cli.parse(argc, argv)) return 0;

        LoadSpec spec;
        spec.host = cli.get("host");
        const std::int64_t port = cli.get_int("port");
        require(port > 0 && port <= 65535, "--port is required (1..65535)");
        spec.port = static_cast<std::uint16_t>(port);
        spec.sessions = static_cast<std::size_t>(cli.get_int("sessions"));
        spec.events_per_session = static_cast<std::size_t>(cli.get_int("events"));
        spec.batch = static_cast<std::size_t>(cli.get_int("batch"));
        spec.target = cli.get("target");
        spec.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
        spec.verify = cli.get_flag("verify");
        if (!cli.get("scrape-http").empty()) {
            const std::int64_t scrape_port = cli.get_int("scrape-http");
            require(scrape_port > 0 && scrape_port <= 65535,
                    "--scrape-http needs a port (1..65535)");
            spec.scrape_port = static_cast<std::uint16_t>(scrape_port);
        }
        spec.dump = cli.get_flag("dump");
        require(spec.sessions > 0, "--sessions must be positive");
        require(spec.batch > 0, "--batch must be positive");

        // Every --model file is loaded once and addressable as
        // "<name>/<DW>" (plus bare "<name>" and "default" conveniences) —
        // the same names a multi-model adiv_serve registers, so ensemble
        // member lists mean the same thing locally and over the wire.
        ModelMap model_map;
        if (const std::string paths = cli.get("model"); !paths.empty()) {
            std::size_t pos = 0;
            while (pos <= paths.size()) {
                const std::size_t comma =
                    std::min(paths.find(',', pos), paths.size());
                const std::string path = paths.substr(pos, comma - pos);
                require(!path.empty(), "--model has an empty path");
                const std::shared_ptr<const SequenceDetector> loaded =
                    load_detector_file(path);
                model_map[loaded->name() + "/" +
                          std::to_string(loaded->window_length())] = loaded;
                model_map.emplace(loaded->name(), loaded);
                model_map.emplace("default", loaded);  // the first file
                if (comma == paths.size()) break;
                pos = comma + 1;
            }
        }
        require(!spec.verify || !model_map.empty(), "--verify requires --model");

        std::shared_ptr<TraceSink> request_sink;
        if (const std::string trace = cli.get("trace"); !trace.empty()) {
            spec.trace = true;
            request_sink = open_trace_sink(trace);
            set_global_trace_sink(request_sink);
            // Print the ids up front — they are a pure function of --seed,
            // so a script can pick one and ask traceview for its tree.
            for (std::size_t i = 0; i < spec.sessions; ++i)
                std::printf("session %zu trace=%s\n", i,
                            hex16(session_trace_id(spec.seed, i)).c_str());
        }

        ReplayFn replay;
        if (spec.verify)
            replay = make_replayer(spec.target, model_map);
        const RunResult result = run_load(spec, replay);
        const bool failed =
            !result.errors.empty() || !result.scrape_errors.empty();
        std::printf("%zu session(s) x %zu events: %zu events in %.2fs — "
                    "%.0f events/s, %llu alarms%s\n",
                    spec.sessions, spec.events_per_session,
                    result.total_events, result.seconds,
                    result.events_per_sec(),
                    static_cast<unsigned long long>(result.total_alarms),
                    spec.verify && !failed ? " (verified bit-identical)" : "");
        print_latency_summary(result);
        for (const auto& error : result.errors)
            std::fprintf(stderr, "adiv_loadgen: %s\n", error.c_str());
        for (const auto& error : result.scrape_errors)
            std::fprintf(stderr, "adiv_loadgen: %s\n", error.c_str());
        if (spec.scrape_port != 0 && result.scrape_errors.empty())
            std::printf("GET /metrics on port %u: valid OpenMetrics\n",
                        static_cast<unsigned>(spec.scrape_port));
        return failed ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_loadgen: %s\n", e.what());
        return 1;
    }
}
