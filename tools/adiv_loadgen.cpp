// adiv_loadgen: concurrent client load for an adiv_serve detection server.
//
// Two modes share the same per-session replay (OPEN, batched PUSH, DRAIN,
// CLOSE, with every response collected and counted):
//
//   * TCP mode (--port): drives a running adiv_serve daemon over real
//     sockets. The CI smoke test uses this.
//
//       adiv_loadgen --port 7007 --model monitor.adiv --sessions 8 --verify
//
//   * Sweep mode (--sweep-jobs): builds an in-process server per jobs value
//     over loopback transports — hermetic, no daemon needed — and measures
//     how throughput scales with the worker pool.
//
//       adiv_loadgen --model monitor.adiv --sweep-jobs 1,2,4,0
//                    --out BENCH_serve_throughput.json
//
// Each session replays an independently seeded stream drawn from the
// paper's cycle-plus-deviations transition matrix (falling back to uniform
// symbols for tiny alphabets). With --verify (needs --model so the same
// trained detector exists locally), the scores that came back over the wire
// are compared BIT-IDENTICALLY against a single-threaded OnlineScorer
// replay of the same events — the end-to-end determinism check. DRAINED
// counters must match the client-side tallies exactly (no lost or
// duplicated responses); any mismatch makes the exit status nonzero.
//
// --scrape drives the METRICS verb concurrently with the load: a scraper
// connection pulls the OpenMetrics exposition twice mid-run, parses both,
// and fails the run when any counter moves backwards between scrapes.
// --scrape-http PORT does the same end-to-end over the daemon's HTTP
// GET /metrics endpoint (TCP mode only, no curl needed in CI).
//
// --ensemble "stide/6+markov/6" (sweep mode; the members name --model
// files) OPENs every session with an ensemble spec instead of --target and
// crosses the sweep with the --fuse rule list; --verify then bit-compares
// the served fused scores against a local fusion::EnsembleScorer replay.
// --ensemble-out writes BENCH_serve_ensemble.json: per-rule fused vs
// per-member false alarms on the normal session streams plus detection
// coverage on a uniform-random foreign probe — the fused-suppression
// evidence. TCP mode reaches the same ensemble path by passing the full
// spec via --target.
//
// Every client call is timed into a per-session mergeable quantile sketch
// (obs/sketch.hpp), so each run also reports client-side latency per verb
// (OPEN/PUSH/DRAIN/CLOSE, p50/p95/p99/max within the sketch's documented
// relative-error bound) in the summary lines and the --out JSON; sessions
// merge associatively, so the digest is independent of join order.
//
// --trace PATH turns on request tracing: every session gets a
// deterministic trace id derived from --seed, each OPEN/PUSH carries its
// trace context on the wire (serve/protocol.hpp), and the client-side verb
// spans stream to PATH. Against a daemon started with --trace, feed both
// files to `adiv_traceview --request <id>` to see one request's causal
// tree across the processes; the per-session ids are printed so the id is
// never guessed. --verify is unaffected: ids depend only on the seed.
//
// --profile (sweep mode, ADIV_PROFILE builds) turns each point into a
// contention profile: the global metrics registry is reset per point, the
// server's serve.stage.* sketches and wait-site instruments are captured
// after the drain, and a `profile:` line names the dominant wait site.
// --profile-trace PATH additionally streams the sampled event_stage lines
// and per-point wait_site digests as JSONL for `adiv_traceview
// --contention`; --hotpath-out PATH writes the full per-point breakdown
// (stages, wait sites, dominant site) as BENCH_serve_hotpath.json. --dump
// pulls each session's flight recorder (DUMP verb) before CLOSE and fails
// the run if the dump does not replay as `seq=` records.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "adiv.hpp"

using namespace adiv;

namespace {

struct LoadSpec {
    std::size_t sessions = 8;
    std::size_t events_per_session = 125'000;
    std::size_t batch = 512;
    std::string target = "default";
    std::uint64_t seed = 20050628;
    bool verify = false;
    bool scrape = false;  // concurrent METRICS scrapes during the run
    bool dump = false;    // pull the flight recorder (DUMP) before CLOSE
    bool trace = false;   // mint per-session trace ids (--trace)
    std::size_t scorer_buffer = 0;  // must match the server's --buffer
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
/// session (and every sweep point) replays from a clean state.
using ReplayFn = std::function<std::vector<double>(const Sequence&)>;

using ModelMap =
    std::map<std::string, std::shared_ptr<const SequenceDetector>>;

/// Builds the --verify replayer for an OPEN target over the locally loaded
/// models: ensemble specs replay through a fresh fusion::EnsembleScorer,
/// plain targets through a per-event OnlineScorer — both of which the
/// server's own scoring must match bit for bit.
ReplayFn make_replayer(const std::string& target, const ModelMap& models,
                       std::size_t scorer_buffer) {
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
        return [espec, members, scorer_buffer](const Sequence& events) {
            fusion::EnsembleScorer replay(espec, members, scorer_buffer);
            std::vector<double> expected;
            replay.push_batch(events.data(), events.size(), expected);
            return expected;
        };
    }
    const std::shared_ptr<const SequenceDetector> model = resolve(target);
    return [model, scorer_buffer](const Sequence& events) {
        OnlineScorer replay(*model, scorer_buffer);
        std::vector<double> expected;
        expected.reserve(events.size());
        for (const Symbol s : events)
            if (const auto r = replay.push(s)) expected.push_back(*r);
        return expected;
    };
}

/// Local fused-vs-member analysis of one ensemble target: replays every
/// session's normal-traffic stream (false alarms) and one guaranteed-foreign
/// probe (detection coverage) through fresh EnsembleScorers. The probe walks
/// the cycle BACKWARD — every s -> s-1 transition has probability zero under
/// the generating matrix (successors are s+1 and s+2k), so no training
/// sample can cover any probe window and every member detects every frame.
/// That pins member and fused coverage to exactly 1.0, making the
/// false-alarm comparison a matched-coverage comparison.
struct EnsembleAnalysis {
    std::string fuse;
    std::uint64_t frames = 0;  ///< fused frames over the normal streams
    std::uint64_t fused_false_alarms = 0;
    std::uint64_t suppressed_alarms = 0;
    std::vector<std::uint64_t> member_false_alarms;
    std::uint64_t probe_frames = 0;
    double fused_detection_rate = 0.0;
    std::vector<double> member_detection_rates;
};

EnsembleAnalysis analyze_ensemble(const std::string& target,
                                  const ModelMap& models, const LoadSpec& spec,
                                  std::size_t probe_events) {
    const fusion::EnsembleSpec espec = fusion::parse_ensemble_spec(target);
    std::vector<std::shared_ptr<const SequenceDetector>> members;
    members.reserve(espec.members.size());
    for (const auto& name : espec.members) {
        const auto it = models.find(name);
        require(it != models.end(), "--ensemble member '" + name +
                                        "' is not among the --model files");
        members.push_back(it->second);
    }
    EnsembleAnalysis analysis;
    analysis.fuse = fusion_kind_name(espec.fuse);
    analysis.member_false_alarms.assign(members.size(), 0);
    std::vector<double> scores;
    // Normal traffic: the same per-session streams the load pushed, each
    // through its own scorer — exactly what the served sessions computed.
    for (std::size_t i = 0; i < spec.sessions; ++i) {
        fusion::EnsembleScorer replay(espec, members, spec.scorer_buffer);
        const Sequence events =
            make_session_stream(replay.alphabet_size(),
                                spec.events_per_session, spec.seed + i);
        scores.clear();
        replay.push_batch(events.data(), events.size(), scores);
        analysis.frames += replay.windows_scored();
        analysis.fused_false_alarms += replay.alarms();
        analysis.suppressed_alarms += replay.suppressed_alarms();
        for (std::size_t m = 0; m < members.size(); ++m)
            analysis.member_false_alarms[m] += replay.member_alarms(m);
    }
    // Foreign probe: a reverse-cycle walk is anomalous traffic every member
    // must flag (see the struct comment), so fused coverage is compared at
    // matched member coverage.
    fusion::EnsembleScorer probe(espec, members, spec.scorer_buffer);
    Rng rng(spec.seed + 0x7a6eULL);
    const std::size_t alphabet = probe.alphabet_size();
    Sequence foreign(probe_events);
    Symbol at = static_cast<Symbol>(rng.below(alphabet));
    for (Symbol& s : foreign) {
        s = at;
        at = static_cast<Symbol>((at + alphabet - 1) % alphabet);
    }
    scores.clear();
    probe.push_batch(foreign.data(), foreign.size(), scores);
    analysis.probe_frames = probe.windows_scored();
    if (probe.windows_scored() > 0) {
        analysis.fused_detection_rate =
            static_cast<double>(probe.alarms()) /
            static_cast<double>(probe.windows_scored());
        for (std::size_t m = 0; m < members.size(); ++m)
            analysis.member_detection_rates.push_back(
                static_cast<double>(probe.member_alarms(m)) /
                static_cast<double>(probe.windows_scored()));
    }
    return analysis;
}

/// One full session against the server behind `transport`. Collects every
/// score, checks DRAIN/CLOSE counters, optionally replays locally.
SessionOutcome run_session(std::unique_ptr<serve::Transport> transport,
                           const LoadSpec& spec, std::size_t index,
                           const ReplayFn& local_replay) {
    SessionOutcome outcome;
    auto fail = [&](std::string what) {
        outcome.errors.push_back("session " + std::to_string(index) + ": " +
                                 std::move(what));
    };
    try {
        serve::Client client(std::move(transport));
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

/// Scrapes the server's METRICS verb twice while load runs: both expositions
/// must parse as OpenMetrics and every `_total` counter must be monotone
/// non-decreasing between the scrapes.
std::vector<std::string> scrape_check(
    const std::function<std::unique_ptr<serve::Transport>(std::size_t)>& connect) {
    std::vector<std::string> errors;
    try {
        serve::Client client(connect(0));
        const OpenMetricsDocument before = parse_openmetrics(client.metrics());
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        const OpenMetricsDocument after = parse_openmetrics(client.metrics());
        for (const auto& sample : before.samples) {
            constexpr std::string_view kTotal = "_total";
            if (sample.name.size() <= kTotal.size() ||
                sample.name.compare(sample.name.size() - kTotal.size(),
                                    kTotal.size(), kTotal) != 0)
                continue;
            const std::optional<double> later =
                after.value(sample.name, sample.labels);
            if (!later) {
                errors.push_back("scrape: counter " + sample.name +
                                 " vanished between scrapes");
            } else if (*later < sample.value) {
                errors.push_back("scrape: counter " + sample.name +
                                 " moved backwards (" +
                                 std::to_string(sample.value) + " -> " +
                                 std::to_string(*later) + ")");
            }
        }
        client.disconnect();
    } catch (const std::exception& e) {
        errors.push_back(std::string("scrape: ") + e.what());
    }
    return errors;
}

/// Connect/read bound for the metrics probes: a wedged daemon must fail the
/// run in seconds, not hold it until the kernel gives up.
constexpr int kScrapeTimeoutMs = 5000;

/// One raw HTTP GET against the daemon's --metrics-port: status must be 200
/// and the body must parse as OpenMetrics. Both the connect and every read
/// are bounded by kScrapeTimeoutMs.
std::vector<std::string> scrape_http_check(const std::string& host,
                                           std::uint16_t port) {
    std::vector<std::string> errors;
    try {
        std::unique_ptr<serve::Transport> transport =
            serve::tcp_connect(host, port, kScrapeTimeoutMs);
        transport->set_read_timeout(kScrapeTimeoutMs);
        const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
        transport->write_all(request.data(), request.size());
        std::string response;
        char buffer[4096];
        for (;;) {
            const std::size_t n = transport->read_some(buffer, sizeof buffer);
            if (n == 0) break;
            response.append(buffer, n);
        }
        transport->close();
        if (response.rfind("HTTP/1.0 200", 0) != 0) {
            errors.push_back("scrape-http: expected HTTP/1.0 200, got '" +
                             response.substr(0, response.find('\r')) + "'");
        } else {
            const std::size_t body = response.find("\r\n\r\n");
            if (body == std::string::npos)
                errors.push_back("scrape-http: response has no header/body split");
            else
                parse_openmetrics(response.substr(body + 4));  // throws if bad
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
    /// Per-session sketches merged across every session, by verb. Merging
    /// is associative, so the digest is independent of session join order.
    std::map<std::string, QuantileSketch> latency_us;

    [[nodiscard]] double events_per_sec() const noexcept {
        return seconds > 0.0 ? static_cast<double>(total_events) / seconds : 0.0;
    }
};

/// Runs `spec.sessions` concurrent sessions; `connect` supplies one fresh
/// transport per session (a TCP connect or a loopback attach).
RunResult run_load(
    const LoadSpec& spec, const ReplayFn& local_replay,
    const std::function<std::unique_ptr<serve::Transport>(std::size_t)>& connect) {
    std::vector<SessionOutcome> outcomes(spec.sessions);
    std::vector<std::string> scrape_errors;
    Stopwatch sw;
    {
        std::vector<std::thread> threads;
        threads.reserve(spec.sessions);
        for (std::size_t i = 0; i < spec.sessions; ++i)
            threads.emplace_back([&, i] {
                outcomes[i] = run_session(connect(i), spec, i, local_replay);
            });
        // The scraper rides alongside the load so the exposition is pulled
        // while counters are actually moving.
        std::thread scraper;
        if (spec.scrape)
            scraper = std::thread([&] { scrape_errors = scrape_check(connect); });
        for (auto& t : threads) t.join();
        if (scraper.joinable()) scraper.join();
    }
    RunResult result;
    result.seconds = sw.seconds();
    for (const auto& outcome : outcomes) {
        result.total_events += outcome.events;
        result.total_alarms += outcome.alarms;
        result.errors.insert(result.errors.end(), outcome.errors.begin(),
                             outcome.errors.end());
        for (const auto& [verb, sketch] : outcome.latency_us)
            result.latency_us[verb].merge_from(sketch);
    }
    result.errors.insert(result.errors.end(), scrape_errors.begin(),
                         scrape_errors.end());
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

/// The "client_latency_us" object of one result point in the --out JSON.
void write_latency_json(JsonWriter& w, const RunResult& result) {
    w.key("client_latency_us").begin_object();
    for (const auto& [verb, sketch] : result.latency_us) {
        const SketchSummary s = sketch.summary();
        w.key(verb).begin_object();
        w.key("count").value(s.count);
        w.key("p50").value(s.p50);
        w.key("p95").value(s.p95);
        w.key("p99").value(s.p99);
        w.key("max").value(s.max);
        w.end_object();
    }
    w.end_object();
}

/// The pipeline stages in serve.stage.* order (also the order the hotpath
/// JSON emits them in).
constexpr const char* kStageNames[] = {"recv_wait", "recv_read", "parse",
                                       "queue",     "score",     "reply",
                                       "total"};

/// "1,2,4" -> {1, 2, 4}; empty input -> empty list.
std::vector<std::size_t> parse_size_list(const std::string& text) {
    std::vector<std::size_t> values;
    std::stringstream list(text);
    std::string item;
    while (std::getline(list, item, ','))
        values.push_back(static_cast<std::size_t>(std::stoul(item)));
    return values;
}

/// The registry digest of one profiled sweep point, captured after the
/// point's server drained and before the next point resets the registry:
/// serve.stage.* sketch summaries (per-shard lanes merged at snapshot),
/// every wait site, the dominant site.
struct ProfilePoint {
    std::map<std::string, SketchSummary> stages;
    std::vector<WaitSiteSummary> sites;
    std::string dominant_site;   ///< empty when nothing contended
    std::uint64_t stage_samples = 0;  ///< serve.stage.total_us count
};

ProfilePoint capture_profile_point() {
    ProfilePoint point;
    const MetricsRegistry::Snapshot snap = global_metrics().snapshot();
    for (const char* stage : kStageNames) {
        const std::string name = std::string("serve.stage.") + stage + "_us";
        for (const auto& [metric, summary] : snap.sketches)
            if (metric == name) point.stages[stage] = summary;
    }
    if (const auto it = point.stages.find("total"); it != point.stages.end())
        point.stage_samples = it->second.count;
    point.sites = global_wait_sites().summaries();
    if (const WaitSiteSummary* dominant = dominant_wait_site(point.sites))
        point.dominant_site = dominant->name;
    return point;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("adiv_loadgen",
                  "concurrent client load against an adiv_serve server");
    cli.add_option("port", "0", "TCP mode: port of a running adiv_serve");
    cli.add_option("host", "127.0.0.1", "TCP mode: server host");
    cli.add_option("sweep-jobs", "",
                   "sweep mode: comma-separated jobs values (0 = hardware), "
                   "each run against an in-process loopback server");
    cli.add_option("sweep-shards", "",
                   "sweep mode: comma-separated shards values crossed with "
                   "--sweep-jobs (0 = one shard per worker)");
    cli.add_option("shards", "0",
                   "sweep mode: session-table shards when --sweep-shards is "
                   "absent (0 = one per worker)");
    cli.add_option("model", "",
                   "trained model file(s), comma-separated: serve the sweep, "
                   "verify TCP runs, and supply ensemble members");
    cli.add_option("sessions", "8", "concurrent client sessions");
    cli.add_option("events", "125000", "events pushed per session");
    cli.add_option("batch", "512", "events per PUSH frame");
    cli.add_option("target", "default",
                   "OPEN target: a model name, or an ensemble spec such as "
                   "\"stide/6+markov/6;fuse=ds\"");
    cli.add_option("ensemble", "",
                   "sweep mode: ensemble member list (e.g. "
                   "\"stide/6+markov/6\") OPENed instead of --target; the "
                   "members name --model files and the sweep crosses --fuse "
                   "x shards x jobs");
    cli.add_option("fuse", "union,intersect,vote,ds",
                   "comma-separated fusion rules swept with --ensemble");
    cli.add_option("ensemble-out", "",
                   "write the fused-vs-member false-alarm and coverage "
                   "analysis as a BENCH_serve_ensemble JSON document "
                   "(requires --ensemble)");
    cli.add_option("probe-events", "20000",
                   "foreign-probe stream length for the --ensemble-out "
                   "coverage analysis");
    cli.add_option("seed", "20050628", "base seed; session i uses seed+i");
    cli.add_option("queue", "256", "sweep mode: server queue capacity");
    cli.add_option("buffer", "0",
                   "scorer buffer (must match the server's --buffer)");
    cli.add_option("out", "", "write results JSON here");
    cli.add_option("shards-out", "",
                   "write the shards x jobs throughput matrix as a "
                   "BENCH_serve_shards JSON document (sweep mode)");
    cli.add_option("trace", "",
                   "request tracing: write client verb spans here, stamp "
                   "every OPEN/PUSH with a deterministic per-session trace "
                   "id, and print the ids for adiv_traceview --request");
    cli.add_flag("verify",
                 "bit-compare served scores against a local OnlineScorer "
                 "replay (requires --model)");
    cli.add_flag("scrape",
                 "pull METRICS twice mid-run; fail on unparseable exposition "
                 "or non-monotone counters");
    cli.add_option("scrape-http", "",
                   "TCP mode: also GET /metrics from the daemon's "
                   "--metrics-port at this port");
    cli.add_flag("dump",
                 "pull each session's flight recorder (DUMP) before CLOSE; "
                 "fail unless it replays as seq= records (needs a profiling "
                 "server)");
    cli.add_flag("profile",
                 "sweep mode: profile each point — reset the registry, "
                 "capture serve.stage.* and wait sites after the drain "
                 "(ADIV_PROFILE builds)");
    cli.add_option("profile-sample", "64",
                   "sweep mode: server emits one event_stage trace line per "
                   "N PUSHes under --profile (0 = none)");
    cli.add_option("profile-trace", "",
                   "write event_stage + wait_site JSONL here for "
                   "adiv_traceview --contention (requires --profile)");
    cli.add_option("hotpath-out", "",
                   "write the per-point stage/wait-site breakdown as a "
                   "BENCH_serve_hotpath JSON document (requires --profile)");
    cli.add_option("flight", "64",
                   "sweep mode: per-session flight-recorder capacity");
    try {
        if (!cli.parse(argc, argv)) return 0;

        LoadSpec spec;
        spec.sessions = static_cast<std::size_t>(cli.get_int("sessions"));
        spec.events_per_session = static_cast<std::size_t>(cli.get_int("events"));
        spec.batch = static_cast<std::size_t>(cli.get_int("batch"));
        spec.target = cli.get("target");
        spec.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
        spec.verify = cli.get_flag("verify");
        spec.scrape = cli.get_flag("scrape");
        spec.dump = cli.get_flag("dump");
        spec.scorer_buffer = static_cast<std::size_t>(cli.get_int("buffer"));
        require(spec.sessions > 0, "--sessions must be positive");
        require(spec.batch > 0, "--batch must be positive");

        // Every --model file is loaded once and addressable as
        // "<name>/<DW>" (plus bare "<name>" and "default" conveniences) —
        // the same names a multi-model adiv_serve registers, so ensemble
        // member lists mean the same thing locally and over the wire.
        std::vector<std::shared_ptr<const SequenceDetector>> models;
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
                models.push_back(loaded);
                model_map[loaded->name() + "/" +
                          std::to_string(loaded->window_length())] = loaded;
                model_map.emplace(loaded->name(), loaded);
                if (comma == paths.size()) break;
                pos = comma + 1;
            }
            model_map.emplace("default", models.front());
        }
        require(!spec.verify || !models.empty(), "--verify requires --model");

        const std::string sweep = cli.get("sweep-jobs");
        const std::string sweep_shards = cli.get("sweep-shards");
        const bool sweep_mode = !sweep.empty() || !sweep_shards.empty();
        const int port = cli.get_int("port");
        require(sweep_mode || port > 0, "--port or --sweep-jobs is required");
        require(cli.get("scrape-http").empty() || !sweep_mode,
                "--scrape-http needs TCP mode (--port)");
        require(cli.get("shards-out").empty() || sweep_mode,
                "--shards-out requires sweep mode (--sweep-shards)");

        const std::string ensemble = cli.get("ensemble");
        require(ensemble.empty() || sweep_mode,
                "--ensemble requires sweep mode (--sweep-jobs / "
                "--sweep-shards); drive a daemon's ensemble sessions with "
                "--target instead");
        require(cli.get("ensemble-out").empty() || !ensemble.empty(),
                "--ensemble-out requires --ensemble");
        // One sweep pass per fusion rule; the single empty entry keeps the
        // plain (non-ensemble) sweep to one pass.
        std::vector<std::string> fuse_rules{std::string()};
        if (!ensemble.empty()) {
            fuse_rules.clear();
            std::stringstream list(cli.get("fuse"));
            std::string rule;
            while (std::getline(list, rule, ',')) {
                (void)fusion::parse_fusion_kind(rule);  // fail fast on typos
                fuse_rules.push_back(rule);
            }
            require(!fuse_rules.empty(), "--fuse names no rules");
        }

        const bool profile = cli.get_flag("profile");
        if (profile) {
            require(profiling_compiled(),
                    "--profile needs an ADIV_PROFILE build (reconfigure with "
                    "-DADIV_PROFILE=ON)");
            require(sweep_mode,
                    "--profile needs sweep mode (--sweep-jobs); profile a "
                    "daemon by starting adiv_serve with --profile");
            set_profiling_enabled(true);
        }
        require(cli.get("hotpath-out").empty() || profile,
                "--hotpath-out requires --profile");
        require(!spec.dump || !sweep_mode || profile,
                "--dump in sweep mode requires --profile (the flight ring "
                "only fills while the server profiles)");
        std::shared_ptr<TraceSink> profile_sink;
        if (const std::string trace = cli.get("profile-trace"); !trace.empty()) {
            require(profile, "--profile-trace requires --profile");
            profile_sink = open_trace_sink(trace);
            set_global_trace_sink(profile_sink);
        }
        std::shared_ptr<TraceSink> request_sink;
        if (const std::string trace = cli.get("trace"); !trace.empty()) {
            require(cli.get("profile-trace").empty(),
                    "--trace and --profile-trace write the same sink; pick "
                    "one");
            spec.trace = true;
            request_sink = open_trace_sink(trace);
            set_global_trace_sink(request_sink);
            // Print the ids up front — they are a pure function of --seed,
            // so a script can pick one and ask traceview for its tree.
            for (std::size_t i = 0; i < spec.sessions; ++i)
                std::printf("session %zu trace=%s\n", i,
                            hex16(session_trace_id(spec.seed, i)).c_str());
        }

        struct SweepPoint {
            std::size_t jobs_requested;
            std::size_t jobs_resolved;
            std::size_t shards_requested;
            std::size_t shards_resolved;
            RunResult result;
            ProfilePoint profile;
            std::string fuse;  ///< fusion rule of an --ensemble point
        };
        std::vector<SweepPoint> points;
        bool failed = false;

        if (sweep_mode) {
            require(!models.empty(), "--sweep-jobs requires --model");
            std::vector<std::size_t> jobs_values = parse_size_list(sweep);
            if (jobs_values.empty()) jobs_values.push_back(0);
            std::vector<std::size_t> shard_values = parse_size_list(sweep_shards);
            if (shard_values.empty())
                shard_values.push_back(
                    static_cast<std::size_t>(cli.get_int("shards")));
            for (const std::string& fuse : fuse_rules) {
            LoadSpec point_spec = spec;
            if (!ensemble.empty())
                point_spec.target = ensemble + ";fuse=" + fuse;
            ReplayFn replay;
            if (point_spec.verify)
                replay = make_replayer(point_spec.target, model_map,
                                       spec.scorer_buffer);
            for (const std::size_t shards : shard_values) {
            for (const std::size_t jobs : jobs_values) {
                serve::ServerConfig config;
                config.jobs = jobs;
                config.shards = shards;
                config.queue_capacity =
                    static_cast<std::size_t>(cli.get_int("queue"));
                config.scorer_buffer = spec.scorer_buffer;
                config.flight_capacity =
                    static_cast<std::size_t>(cli.get_int("flight"));
                config.profile_sample_every =
                    static_cast<std::uint64_t>(cli.get_int("profile-sample"));
                // Each profiled point gets a clean registry so its captured
                // digest covers exactly this shards x jobs point; the
                // wait-site instruments live in the same registry and reset
                // with it.
                if (profile) global_metrics().reset();
                serve::Server server(config);
                for (const auto& m : models)
                    server.add_model(
                        m->name() + "/" + std::to_string(m->window_length()),
                        m);
                if (ensemble.empty() && spec.target != "default")
                    server.add_model(spec.target, models.front());
                const std::size_t shards_resolved = server.shard_count();
                const RunResult result =
                    run_load(point_spec, replay, [&](std::size_t) {
                        auto [client_end, server_end] = serve::make_loopback_pair();
                        require(server.attach(std::move(server_end)),
                                "server refused connection");
                        return std::move(client_end);
                    });
                server.shutdown();
                ProfilePoint prof;
                if (profile) {
                    prof = capture_profile_point();
                    if (profile_sink && profile_sink->enabled())
                        global_wait_sites().write_jsonl(*profile_sink);
                }
                points.push_back({jobs, resolve_jobs(jobs), shards,
                                  shards_resolved, result, prof, fuse});
                if (!fuse.empty())
                    std::printf("fuse %s, ", fuse.c_str());
                std::printf("shards %zu, jobs %zu (%zu workers): %zu events "
                            "in %.2fs — %.0f events/s, %llu alarms\n",
                            shards_resolved, jobs, resolve_jobs(jobs),
                            result.total_events, result.seconds,
                            result.events_per_sec(),
                            static_cast<unsigned long long>(result.total_alarms));
                print_latency_summary(result);
                if (profile)
                    std::printf("  profile: stage samples=%llu, dominant wait "
                                "site: %s\n",
                                static_cast<unsigned long long>(
                                    prof.stage_samples),
                                prof.dominant_site.empty()
                                    ? "(none contended)"
                                    : prof.dominant_site.c_str());
                for (const auto& error : result.errors) {
                    std::fprintf(stderr, "adiv_loadgen: %s\n", error.c_str());
                    failed = true;
                }
            }
            }
            }
        } else {
            const std::string host = cli.get("host");
            ReplayFn replay;
            if (spec.verify)
                replay = make_replayer(spec.target, model_map,
                                       spec.scorer_buffer);
            const RunResult result = run_load(spec, replay, [&](std::size_t) {
                return serve::tcp_connect(host,
                                          static_cast<std::uint16_t>(port));
            });
            points.push_back({0, 0, 0, 0, result, {}, {}});
            std::printf("%zu session(s) x %zu events: %zu events in %.2fs — "
                        "%.0f events/s, %llu alarms%s\n",
                        spec.sessions, spec.events_per_session,
                        result.total_events, result.seconds,
                        result.events_per_sec(),
                        static_cast<unsigned long long>(result.total_alarms),
                        spec.verify ? " (verified bit-identical)" : "");
            print_latency_summary(result);
            for (const auto& error : result.errors) {
                std::fprintf(stderr, "adiv_loadgen: %s\n", error.c_str());
                failed = true;
            }
            if (const std::string scrape_port = cli.get("scrape-http");
                !scrape_port.empty()) {
                const std::vector<std::string> http_errors = scrape_http_check(
                    host, static_cast<std::uint16_t>(std::stoul(scrape_port)));
                for (const auto& error : http_errors) {
                    std::fprintf(stderr, "adiv_loadgen: %s\n", error.c_str());
                    failed = true;
                }
                if (http_errors.empty())
                    std::printf("GET /metrics on port %s: valid OpenMetrics\n",
                                scrape_port.c_str());
            }
        }

        if (const std::string out = cli.get("out"); !out.empty()) {
            JsonWriter w;
            w.begin_object();
            w.key("benchmark").value("serve_throughput");
            w.key("mode").value(sweep_mode ? "loopback_sweep" : "tcp");
            w.key("sessions").value(static_cast<std::uint64_t>(spec.sessions));
            w.key("events_per_session")
                .value(static_cast<std::uint64_t>(spec.events_per_session));
            w.key("batch").value(static_cast<std::uint64_t>(spec.batch));
            w.key("verified").value(spec.verify && !failed);
            w.key("results").begin_array();
            for (const auto& point : points) {
                w.begin_object();
                if (sweep_mode) {
                    w.key("jobs").value(
                        static_cast<std::uint64_t>(point.jobs_requested));
                    w.key("workers").value(
                        static_cast<std::uint64_t>(point.jobs_resolved));
                    w.key("shards").value(
                        static_cast<std::uint64_t>(point.shards_resolved));
                    if (!point.fuse.empty()) w.key("fuse").value(point.fuse);
                }
                w.key("total_events")
                    .value(static_cast<std::uint64_t>(point.result.total_events));
                w.key("seconds").value(point.result.seconds);
                w.key("events_per_sec").value(point.result.events_per_sec());
                w.key("alarms").value(point.result.total_alarms);
                w.key("errors")
                    .value(static_cast<std::uint64_t>(point.result.errors.size()));
                write_latency_json(w, point.result);
                w.end_object();
            }
            w.end_array();
            w.end_object();
            std::ofstream file(out);
            require_data(file.good(), "cannot open '" + out + "'");
            file << w.str() << '\n';
            std::printf("results written to %s\n", out.c_str());
        }

        if (const std::string hotpath = cli.get("hotpath-out");
            !hotpath.empty()) {
            // The busiest point (most workers; ties to the later point)
            // delivers the headline verdict: where the hot path waits.
            const SweepPoint* busiest = nullptr;
            for (const auto& point : points)
                if (busiest == nullptr ||
                    point.jobs_resolved >= busiest->jobs_resolved)
                    busiest = &point;
            JsonWriter w;
            w.begin_object();
            w.key("benchmark").value("serve_hotpath");
            w.key("sessions").value(static_cast<std::uint64_t>(spec.sessions));
            w.key("events_per_session")
                .value(static_cast<std::uint64_t>(spec.events_per_session));
            w.key("batch").value(static_cast<std::uint64_t>(spec.batch));
            w.key("profile_sample_every")
                .value(static_cast<std::uint64_t>(
                    cli.get_int("profile-sample")));
            w.key("results").begin_array();
            for (const auto& point : points) {
                w.begin_object();
                w.key("jobs").value(
                    static_cast<std::uint64_t>(point.jobs_requested));
                w.key("workers").value(
                    static_cast<std::uint64_t>(point.jobs_resolved));
                w.key("shards").value(
                    static_cast<std::uint64_t>(point.shards_resolved));
                w.key("events_per_sec").value(point.result.events_per_sec());
                w.key("stage_samples").value(point.profile.stage_samples);
                w.key("stages").begin_object();
                for (const char* stage : kStageNames) {
                    const auto it = point.profile.stages.find(stage);
                    if (it == point.profile.stages.end()) continue;
                    const SketchSummary& s = it->second;
                    w.key(stage).begin_object();
                    w.key("count").value(s.count);
                    w.key("mean_us").value(s.mean);
                    w.key("p50_us").value(s.p50);
                    w.key("p95_us").value(s.p95);
                    w.key("p99_us").value(s.p99);
                    w.key("max_us").value(s.max);
                    w.end_object();
                }
                w.end_object();
                w.key("wait_sites").begin_array();
                for (const WaitSiteSummary& site : point.profile.sites) {
                    w.begin_object();
                    w.key("site").value(site.name);
                    w.key("kind").value(to_string(site.kind));
                    w.key("acquires").value(site.acquires);
                    w.key("contended").value(site.contended);
                    w.key("wait_us_total").value(site.wait_us_total);
                    w.key("wait_us_mean").value(site.wait_us_mean);
                    w.key("wait_us_p95").value(site.wait_us_p95);
                    w.key("wait_us_max").value(site.wait_us_max);
                    w.end_object();
                }
                w.end_array();
                w.key("dominant_wait_site").value(point.profile.dominant_site);
                w.end_object();
            }
            w.end_array();
            w.key("dominant_wait_site")
                .value(busiest != nullptr ? busiest->profile.dominant_site
                                          : std::string());
            w.end_object();
            std::ofstream file(hotpath);
            require_data(file.good(), "cannot open '" + hotpath + "'");
            file << w.str() << '\n';
            std::printf("hotpath profile written to %s\n", hotpath.c_str());
        }

        if (const std::string shards_out = cli.get("shards-out");
            !shards_out.empty()) {
            // The shards x jobs throughput matrix: one result object per
            // sweep point, events/sec as the headline number. scaling_4v1
            // compares the best 4-worker point against the best 1-worker
            // point (0.0 when either is missing from the sweep).
            double best_one = 0.0;
            double best_four = 0.0;
            for (const auto& point : points) {
                if (point.jobs_resolved == 1)
                    best_one = std::max(best_one, point.result.events_per_sec());
                if (point.jobs_resolved == 4)
                    best_four = std::max(best_four,
                                         point.result.events_per_sec());
            }
            JsonWriter w;
            w.begin_object();
            w.key("benchmark").value("serve_shards");
            w.key("sessions").value(static_cast<std::uint64_t>(spec.sessions));
            w.key("events_per_session")
                .value(static_cast<std::uint64_t>(spec.events_per_session));
            w.key("batch").value(static_cast<std::uint64_t>(spec.batch));
            w.key("verified").value(spec.verify && !failed);
            w.key("results").begin_array();
            for (const auto& point : points) {
                w.begin_object();
                w.key("shards").value(
                    static_cast<std::uint64_t>(point.shards_requested));
                w.key("shards_resolved").value(
                    static_cast<std::uint64_t>(point.shards_resolved));
                w.key("jobs").value(
                    static_cast<std::uint64_t>(point.jobs_requested));
                w.key("workers").value(
                    static_cast<std::uint64_t>(point.jobs_resolved));
                w.key("total_events")
                    .value(static_cast<std::uint64_t>(point.result.total_events));
                w.key("seconds").value(point.result.seconds);
                w.key("events_per_sec").value(point.result.events_per_sec());
                w.key("alarms").value(point.result.total_alarms);
                w.key("errors")
                    .value(static_cast<std::uint64_t>(point.result.errors.size()));
                w.end_object();
            }
            w.end_array();
            w.key("scaling_4v1")
                .value(best_one > 0.0 ? best_four / best_one : 0.0);
            w.end_object();
            std::ofstream file(shards_out);
            require_data(file.good(), "cannot open '" + shards_out + "'");
            file << w.str() << '\n';
            std::printf("shards sweep written to %s\n", shards_out.c_str());
        }

        if (const std::string ensemble_out = cli.get("ensemble-out");
            !ensemble_out.empty()) {
            // The paper's claim, measured: per fusion rule, fused false
            // alarms on the normal session streams vs each member's own
            // false alarms at the same frames, plus detection coverage on a
            // foreign probe. "suppression_demonstrated" is true when some
            // rule false-alarms less than the best (lowest-FA) member while
            // matching that member's probe coverage.
            const std::size_t probe_events =
                static_cast<std::size_t>(cli.get_int("probe-events"));
            std::vector<EnsembleAnalysis> analyses;
            for (const std::string& fuse : fuse_rules)
                analyses.push_back(analyze_ensemble(ensemble + ";fuse=" + fuse,
                                                    model_map, spec,
                                                    probe_events));
            const std::vector<std::string> member_names =
                fusion::parse_ensemble_spec(ensemble + ";fuse=union").members;
            const EnsembleAnalysis& base = analyses.front();
            std::size_t best_member = 0;
            for (std::size_t m = 1; m < member_names.size(); ++m)
                if (base.member_false_alarms[m] <
                    base.member_false_alarms[best_member])
                    best_member = m;
            bool suppression_demonstrated = false;
            JsonWriter w;
            w.begin_object();
            w.key("benchmark").value("serve_ensemble");
            w.key("ensemble").value(ensemble);
            w.key("sessions").value(static_cast<std::uint64_t>(spec.sessions));
            w.key("events_per_session")
                .value(static_cast<std::uint64_t>(spec.events_per_session));
            w.key("probe_events")
                .value(static_cast<std::uint64_t>(probe_events));
            w.key("frames").value(base.frames);
            w.key("probe_frames").value(base.probe_frames);
            w.key("verified").value(spec.verify && !failed);
            w.key("members").begin_array();
            for (std::size_t m = 0; m < member_names.size(); ++m) {
                w.begin_object();
                w.key("name").value(member_names[m]);
                w.key("false_alarms").value(base.member_false_alarms[m]);
                w.key("detection_rate").value(base.member_detection_rates[m]);
                w.end_object();
            }
            w.end_array();
            w.key("fusion").begin_array();
            for (const EnsembleAnalysis& analysis : analyses) {
                const bool beats =
                    analysis.fused_false_alarms <
                        base.member_false_alarms[best_member] &&
                    analysis.fused_detection_rate >=
                        base.member_detection_rates[best_member];
                suppression_demonstrated |= beats;
                w.begin_object();
                w.key("fuse").value(analysis.fuse);
                w.key("fused_false_alarms").value(analysis.fused_false_alarms);
                w.key("suppressed_alarms").value(analysis.suppressed_alarms);
                w.key("member_false_alarms").begin_array();
                for (const std::uint64_t alarms : analysis.member_false_alarms)
                    w.value(alarms);
                w.end_array();
                w.key("fused_detection_rate")
                    .value(analysis.fused_detection_rate);
                w.key("member_detection_rates").begin_array();
                for (const double rate : analysis.member_detection_rates)
                    w.value(rate);
                w.end_array();
                w.key("beats_best_member").value(beats);
                w.end_object();
                std::printf(
                    "fusion %-9s false alarms %llu / %llu frames "
                    "(members best %llu), probe detection %.3f%s\n",
                    analysis.fuse.c_str(),
                    static_cast<unsigned long long>(
                        analysis.fused_false_alarms),
                    static_cast<unsigned long long>(analysis.frames),
                    static_cast<unsigned long long>(
                        base.member_false_alarms[best_member]),
                    analysis.fused_detection_rate,
                    beats ? " — beats best member" : "");
            }
            w.end_array();
            w.key("best_member").value(member_names[best_member]);
            w.key("suppression_demonstrated").value(suppression_demonstrated);
            w.end_object();
            std::ofstream file(ensemble_out);
            require_data(file.good(), "cannot open '" + ensemble_out + "'");
            file << w.str() << '\n';
            std::printf("ensemble analysis written to %s\n",
                        ensemble_out.c_str());
        }
        return failed ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_loadgen: %s\n", e.what());
        return 1;
    }
}
