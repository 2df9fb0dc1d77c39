// adiv_score: score a trace file with a persisted model and print the alarm
// report.
//
//   adiv_score --model m.adiv --input session.trace [--threshold 1.0]
//   tail -f events | adiv_score --model m.adiv --input - --framed
//
// Scoring runs through the online scorer (core/online.hpp) in batches, the
// deployment-facing path: identical to batch score() for the window-local
// detectors, bounded-horizon for the HMM.
//
// --input - streams stdin through the scorer one event at a time: an
// adiv-stream / adiv-trace document, or bare whitespace-separated symbol ids
// (no header, unbounded — the tail -f case). Responses are emitted as they
// are produced.
//
// --framed emits responses as adiv_serve SCORES frames (serve/protocol.hpp)
// on stdout instead of the CSV/report, so scored output composes with
// anything that speaks the serve wire format; the summary moves to stderr.
//
// --jobs N scores window-local detectors in parallel: the stream is split
// into N chunks overlapping by DW-1 elements, the chunks are scored on up to
// N threads (parallel_for, util/parallel.hpp), and the responses are spliced
// back by window position — bit-equal to the serial pass. Detectors that condition on the whole prefix (the HMM)
// ignore --jobs and score serially, as does --input - (the stream has no
// end to split at).
//
// Observability: --trace PATH streams JSON-lines spans — the run manifest
// first, then one score.batch span per window batch with the instrumented
// detect.score spans nested inside. --metrics PATH dumps the final metrics
// (online.events_consumed, online.alarm_rate, detect.score_us
// percentiles, ...) as a human table on stdout and machine JSON to PATH
// ('-' = stdout).
//
// Exit status: 0 when no alarms fire, 2 when at least one alarm event fires
// (scriptable), 1 on errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>

#include "adiv.hpp"

using namespace adiv;

namespace {

/// One SCORES frame on stdout, the serve wire format.
void write_scores_frame(const double* data, std::size_t count) {
    serve::Response response;
    response.type = serve::ResponseType::Scores;
    response.scores.assign(data, data + count);
    const std::string frame = serve::encode_frame(serve::serialize(response));
    std::fwrite(frame.data(), 1, frame.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("adiv_score", "score a trace with a saved model");
    cli.add_option("model", "model.adiv", "model file from adiv_train");
    cli.add_option("input", "",
                   "input adiv-trace or adiv-stream file, or - for stdin "
                   "(also accepts bare symbol ids)");
    cli.add_option("threshold", "0.999999999",
                   "alarm when response >= threshold (1.0 = maximal only)");
    cli.add_option("batch", "1024", "events per scored window batch (trace span)");
    cli.add_option("jobs", "0",
                   "scoring worker threads (0 = hardware concurrency); "
                   "responses are identical for any value");
    cli.add_flag("csv", "emit per-window responses as CSV instead of a report");
    cli.add_flag("framed",
                 "emit responses as adiv_serve SCORES frames on stdout");
    add_observability_options(cli);
    try {
        if (!cli.parse(argc, argv)) return 0;
        const std::string input_path = cli.get("input");
        require(!input_path.empty(), "--input is required");
        const std::size_t batch_size =
            static_cast<std::size_t>(cli.get_int("batch"));
        require(batch_size >= 1, "--batch must be at least 1");
        const bool framed = cli.get_flag("framed");
        const bool csv = cli.get_flag("csv");
        const bool from_stdin = input_path == "-";

        const auto detector = instrument(load_detector_file(cli.get("model")));
        std::fprintf(framed ? stderr : stdout,
                     "# model: %s, DW=%zu, alphabet=%zu\n",
                     detector->name().c_str(), detector->window_length(),
                     detector->alphabet_size());

        RunManifest manifest = make_manifest("adiv_score");
        manifest.detector = detector->name();
        manifest.alphabet_size = detector->alphabet_size();
        manifest.min_window = manifest.max_window = detector->window_length();
        ObsSession obs(cli, std::move(manifest));

        std::vector<double> responses;
        EventStream test(detector->alphabet_size());
        std::optional<Alphabet> alphabet;
        bool streamed_output = false;  // responses already emitted on the fly

        if (from_stdin) {
            // Streaming path: one event at a time through the online scorer,
            // responses emitted as produced. Three input shapes, told apart
            // by the first token: a tagged document (header gives alphabet
            // and length) or bare symbol ids until EOF.
            std::istream& in = std::cin;
            std::string tag;
            require_data(static_cast<bool>(in >> tag), "stdin is empty");
            std::size_t alphabet_size = detector->alphabet_size();
            std::size_t remaining = std::numeric_limits<std::size_t>::max();
            bool bounded = false;
            std::optional<Symbol> first;
            if (tag == "adiv-stream" || tag == "adiv-trace") {
                const StreamHeader header = read_stream_header(in, tag);
                alphabet_size = header.alphabet_size;
                remaining = header.length;
                bounded = true;
                if (tag == "adiv-trace") alphabet.emplace(header.names);
            } else {
                require_data(tag[0] >= '0' && tag[0] <= '9',
                             "unrecognized stdin input: expected adiv-stream, "
                             "adiv-trace, or bare symbol ids (got '" +
                                 tag + "')");
                first = parse_symbol(tag, alphabet_size, "symbol id");
            }

            const bool keep_events = !framed && !csv;  // report needs them
            test = EventStream(alphabet_size);
            OnlineScorer scorer(*detector);
            std::vector<double> pending;  // frames batched per --batch
            streamed_output = framed || csv;
            if (csv) std::printf("window,response\n");
            auto consume = [&](Symbol event) {
                if (keep_events) test.push_back(event);
                if (const auto response = scorer.push(event)) {
                    responses.push_back(*response);
                    if (framed) {
                        pending.push_back(*response);
                        if (pending.size() >= batch_size) {
                            write_scores_frame(pending.data(), pending.size());
                            pending.clear();
                        }
                    } else if (csv) {
                        std::printf("%zu,%.9f\n", responses.size() - 1,
                                    *response);
                    }
                }
            };
            if (first) consume(*first);
            std::string token;
            while (remaining > 0 && (in >> token)) {
                if (alphabet) {
                    consume(alphabet->id(token));
                } else {
                    consume(parse_symbol(token, alphabet_size, "symbol id"));
                }
                if (bounded) --remaining;
            }
            require_data(!bounded || remaining == 0,
                         "stdin ended " + std::to_string(remaining) +
                             " event(s) before the declared length");
            if (framed && !pending.empty())
                write_scores_frame(pending.data(), pending.size());
        } else {
            {
                std::ifstream probe(input_path);
                require_data(probe.good(), "cannot open '" + input_path + "'");
                std::string tag;
                probe >> tag;
                if (tag == "adiv-trace") {
                    auto [names, stream] = load_trace_file(input_path);
                    alphabet.emplace(std::move(names));
                    test = std::move(stream);
                } else {
                    test = load_stream_file(input_path);
                }
            }

            const std::size_t jobs =
                resolve_jobs(static_cast<std::size_t>(cli.get_int("jobs")));
            const std::size_t dw = detector->window_length();
            const std::size_t windows = test.window_count(dw);
            if (jobs > 1 && detector->window_local() && windows >= 2 * jobs) {
                // Parallel path: overlapping chunks, responses spliced by
                // window position. window_local() guarantees chunk seams
                // change nothing. Chunk c's span is child c of
                // score.parallel, whichever thread runs it.
                responses.resize(windows);
                const std::size_t chunk_windows = (windows + jobs - 1) / jobs;
                const std::size_t chunks = (windows + chunk_windows - 1) / chunk_windows;
                TraceSpan parallel_span("score.parallel");
                const TraceContext parallel_ids = parallel_span.context();
                parallel_for(chunks, jobs, [&](std::size_t c) {
                    const std::size_t w0 = c * chunk_windows;
                    const std::size_t count = std::min(chunk_windows, windows - w0);
                    TraceSpan chunk_span("score.chunk", child_context(parallel_ids, c),
                                         parallel_ids.span_id);
                    chunk_span.attr("first_window", static_cast<std::uint64_t>(w0))
                        .attr("windows", static_cast<std::uint64_t>(count));
                    const EventStream chunk = test.slice(w0, count + dw - 1);
                    const std::vector<double> scores = detector->score(chunk);
                    std::copy(scores.begin(), scores.end(),
                              responses.begin() + static_cast<std::ptrdiff_t>(w0));
                });
            } else {
                OnlineScorer scorer(*detector);
                responses.reserve(windows);
                const Sequence& events_in = test.events();
                for (std::size_t start = 0; start < events_in.size(); start += batch_size) {
                    const std::size_t end = std::min(events_in.size(), start + batch_size);
                    TraceSpan batch_span("score.batch");
                    batch_span.attr("batch", static_cast<std::uint64_t>(start / batch_size))
                        .attr("events", static_cast<std::uint64_t>(end - start));
                    scorer.push_batch(events_in.data() + start, end - start,
                                      responses);
                    batch_span.attr("windows_scored",
                                    static_cast<std::uint64_t>(responses.size()));
                }
            }
        }

        if (framed) {
            if (!streamed_output)
                for (std::size_t pos = 0; pos < responses.size(); pos += batch_size)
                    write_scores_frame(
                        responses.data() + pos,
                        std::min(batch_size, responses.size() - pos));
            std::fflush(stdout);
            const auto events =
                extract_alarm_events(responses, cli.get_double("threshold"));
            std::fprintf(stderr, "# %zu alarm event(s) over %zu windows\n",
                         events.size(), responses.size());
            return events.empty() ? 0 : 2;
        }
        if (csv) {
            if (!streamed_output) {
                std::printf("window,response\n");
                for (std::size_t i = 0; i < responses.size(); ++i)
                    std::printf("%zu,%.9f\n", i, responses[i]);
            }
            return 0;
        }
        const auto events =
            extract_alarm_events(responses, cli.get_double("threshold"));
        std::printf("%s", render_alarm_report(
                              events, &test, detector->window_length(),
                              alphabet ? &*alphabet : nullptr)
                              .c_str());
        std::printf("# %zu alarm event(s) over %zu windows\n", events.size(),
                    responses.size());
        return events.empty() ? 0 : 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_score: %s\n", e.what());
        return 1;
    }
}
