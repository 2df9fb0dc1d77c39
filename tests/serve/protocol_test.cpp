// Wire protocol unit tests: framing and record grammar, no sockets anywhere.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace adiv::serve {
namespace {

TEST(Framing, EncodesLengthPrefixedPayload) {
    EXPECT_EQ(encode_frame("OPEN default"), "12 OPEN default");
    EXPECT_EQ(encode_frame(""), "0 ");
}

TEST(Framing, DecodesWholeFramesFromOneChunk) {
    FrameDecoder decoder;
    decoder.feed("5 hello6  world");
    EXPECT_EQ(decoder.next(), "hello");
    EXPECT_EQ(decoder.next(), " world");
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_TRUE(decoder.idle());
}

TEST(Framing, ReassemblesAcrossArbitrarySplits) {
    const std::string wire = encode_frame("PUSH 1 2 3") + encode_frame("STATS");
    for (std::size_t split = 0; split <= wire.size(); ++split) {
        FrameDecoder decoder;
        decoder.feed(std::string_view(wire).substr(0, split));
        std::vector<std::string> payloads;
        while (auto payload = decoder.next()) payloads.push_back(*payload);
        decoder.feed(std::string_view(wire).substr(split));
        while (auto payload = decoder.next()) payloads.push_back(*payload);
        ASSERT_EQ(payloads.size(), 2u) << "split at " << split;
        EXPECT_EQ(payloads[0], "PUSH 1 2 3");
        EXPECT_EQ(payloads[1], "STATS");
        EXPECT_TRUE(decoder.idle());
    }
}

TEST(Framing, ByteAtATimeFeedStillDecodes) {
    const std::string wire = encode_frame("DRAIN");
    FrameDecoder decoder;
    std::vector<std::string> payloads;
    for (char byte : wire) {
        decoder.feed(std::string_view(&byte, 1));
        while (auto payload = decoder.next()) payloads.push_back(*payload);
    }
    ASSERT_EQ(payloads.size(), 1u);
    EXPECT_EQ(payloads[0], "DRAIN");
}

TEST(Framing, RejectsNonNumericPrefix) {
    FrameDecoder decoder;
    decoder.feed("hello world");
    EXPECT_THROW((void)decoder.next(), DataError);
}

TEST(Framing, RejectsOversizedAnnouncement) {
    FrameDecoder decoder;
    decoder.feed(std::to_string(kMaxFramePayload + 1) + " x");
    EXPECT_THROW((void)decoder.next(), DataError);
}

TEST(Framing, RejectsUnterminatedLengthPrefix) {
    FrameDecoder decoder;
    decoder.feed("999999999999999");  // digits far beyond any sane length
    EXPECT_THROW((void)decoder.next(), DataError);
}

TEST(Framing, IdleReportsPartialFrame) {
    FrameDecoder decoder;
    decoder.feed("10 01234");
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_FALSE(decoder.idle());  // mid-frame: an EOF here is an error
}

TEST(Requests, RoundTripEveryType) {
    Request open;
    open.type = RequestType::Open;
    open.target = "markov/6";
    Request push;
    push.type = RequestType::Push;
    push.events = {0, 7, 4294967295u};
    for (const Request& request :
         {open, push, Request{RequestType::Stats, "", {}},
          Request{RequestType::Drain, "", {}}, Request{RequestType::Close, "", {}}}) {
        const Request parsed = parse_request(serialize(request));
        EXPECT_EQ(parsed.type, request.type);
        EXPECT_EQ(parsed.target, request.target);
        EXPECT_EQ(parsed.events, request.events);
    }
}

TEST(Requests, RejectsMalformedRecords) {
    EXPECT_THROW((void)parse_request("FROBNICATE"), DataError);
    EXPECT_THROW((void)parse_request(""), DataError);
    EXPECT_THROW((void)parse_request("OPEN"), DataError);        // missing target
    EXPECT_THROW((void)parse_request("PUSH 1 banana"), DataError);
    EXPECT_THROW((void)parse_request("PUSH -3"), DataError);
    EXPECT_THROW((void)parse_request("STATS please"), DataError);  // trailing junk
    EXPECT_THROW((void)parse_request("CLOSE 1"), DataError);
}

TEST(Requests, TraceContextRoundTripsOnOpenAndPush) {
    Request open;
    open.type = RequestType::Open;
    open.target = "stide/6";
    open.trace_id = 0xdeadbeef01234567ULL;
    open.span_id = 0x0123456789abcdefULL;
    EXPECT_EQ(serialize(open),
              "OPEN stide/6 trace=deadbeef01234567:0123456789abcdef");
    Request push;
    push.type = RequestType::Push;
    push.events = {1, 2, 3};
    push.trace_id = 0xffULL;
    push.span_id = 0x1ULL;
    EXPECT_EQ(serialize(push),
              "PUSH 1 2 3 trace=00000000000000ff:0000000000000001");
    for (const Request& request : {open, push}) {
        const Request parsed = parse_request(serialize(request));
        EXPECT_EQ(parsed.trace_id, request.trace_id);
        EXPECT_EQ(parsed.span_id, request.span_id);
        EXPECT_EQ(parsed.events, request.events);
        EXPECT_EQ(parsed.target, request.target);
    }
}

TEST(Requests, UntracedRequestsOmitTheTraceToken) {
    Request push;
    push.type = RequestType::Push;
    push.events = {4, 5};
    EXPECT_EQ(serialize(push), "PUSH 4 5");  // trace_id 0 = absent, not zeros
    const Request parsed = parse_request("OPEN stide/6");
    EXPECT_EQ(parsed.trace_id, 0u);
    EXPECT_EQ(parsed.span_id, 0u);
}

TEST(Requests, RejectsMalformedTraceTokens) {
    // Not hex, missing colon, and junk after the context all fail; the
    // trace token must also be the FINAL token on a PUSH.
    EXPECT_THROW((void)parse_request("PUSH 1 trace=zz:01"), DataError);
    EXPECT_THROW((void)parse_request("PUSH 1 trace=0011"), DataError);
    EXPECT_THROW((void)parse_request("PUSH 1 trace=00:11 7"), DataError);
    EXPECT_THROW((void)parse_request("OPEN stide/6 trace=zz:01"), DataError);
    EXPECT_THROW((void)parse_request("OPEN stide/6 trace=00:11 x"), DataError);
    // A trace context alone is not an event stream.
    EXPECT_THROW((void)parse_request("PUSH trace=00:11"), DataError);
}

TEST(Responses, ScoresRoundTripBitIdentically) {
    Response response;
    response.type = ResponseType::Scores;
    response.scores = {0.0, 1.0, 1.0 - 1e-9, 0.1234567890123456789,
                       std::numeric_limits<double>::min(),
                       std::nextafter(1.0, 0.0)};
    const Response parsed = parse_response(serialize(response));
    ASSERT_EQ(parsed.type, ResponseType::Scores);
    ASSERT_EQ(parsed.scores.size(), response.scores.size());
    for (std::size_t i = 0; i < response.scores.size(); ++i)
        EXPECT_EQ(parsed.scores[i], response.scores[i]) << "score " << i;
}

TEST(Responses, RoundTripEveryType) {
    Response opened;
    opened.type = ResponseType::Opened;
    opened.session_id = 42;
    opened.detector = "stide";
    opened.window = 6;
    opened.alphabet = 8;
    {
        const Response parsed = parse_response(serialize(opened));
        EXPECT_EQ(parsed.type, ResponseType::Opened);
        EXPECT_EQ(parsed.session_id, 42u);
        EXPECT_EQ(parsed.detector, "stide");
        EXPECT_EQ(parsed.window, 6u);
        EXPECT_EQ(parsed.alphabet, 8u);
    }
    Response stats;
    stats.type = ResponseType::Stats;
    stats.counts = {1000, 995, 3};
    stats.active_sessions = 7;
    {
        const Response parsed = parse_response(serialize(stats));
        EXPECT_EQ(parsed.type, ResponseType::Stats);
        EXPECT_EQ(parsed.counts.events, 1000u);
        EXPECT_EQ(parsed.counts.windows, 995u);
        EXPECT_EQ(parsed.counts.alarms, 3u);
        EXPECT_EQ(parsed.active_sessions, 7u);
    }
    for (ResponseType type : {ResponseType::Drained, ResponseType::Closed}) {
        Response counted;
        counted.type = type;
        counted.counts = {10, 5, 1};
        const Response parsed = parse_response(serialize(counted));
        EXPECT_EQ(parsed.type, type);
        EXPECT_EQ(parsed.counts.events, 10u);
        EXPECT_EQ(parsed.counts.windows, 5u);
        EXPECT_EQ(parsed.counts.alarms, 1u);
    }
}

TEST(Responses, ErrorMessageRunsToEndOfPayload) {
    const Response parsed =
        parse_response(serialize(error_response("unknown model 'quantum/9'")));
    EXPECT_EQ(parsed.type, ResponseType::Error);
    EXPECT_EQ(parsed.message, "unknown model 'quantum/9'");
}

TEST(Responses, RejectsMalformedRecords) {
    EXPECT_THROW((void)parse_response("WAT 1"), DataError);
    EXPECT_THROW((void)parse_response("SCORES 2 0.5"), DataError);  // count lies
    EXPECT_THROW((void)parse_response("OPENED 1 stide"), DataError);
}

TEST(Dump, RequestRoundTrips) {
    const Request parsed = parse_request(serialize(Request{RequestType::Dump}));
    EXPECT_EQ(parsed.type, RequestType::Dump);
    EXPECT_THROW((void)parse_request("DUMP now"), DataError);  // trailing junk
}

TEST(Dump, ResponseCarriesFlightRecordsVerbatim) {
    // DUMPED's body is length-prefixed inside the payload, so the
    // newline-separated record lines survive untouched.
    Response response;
    response.type = ResponseType::Dumped;
    response.body =
        "seq=6 verb=PUSH outcome=ok events=64 scores=59 recv_us=1.000 "
        "parse_us=2.250 score_us=100.125 reply_us=4.000 "
        "total_us=120.500\n"
        "seq=7 verb=DRAIN outcome=ok events=0 scores=0 recv_us=0.000 "
        "parse_us=0.000 score_us=0.000 reply_us=0.000 "
        "total_us=0.000\n";
    const Response parsed = parse_response(serialize(response));
    ASSERT_EQ(parsed.type, ResponseType::Dumped);
    EXPECT_EQ(parsed.body, response.body);
}

TEST(Dump, EmptyDumpRoundTrips) {
    Response response;
    response.type = ResponseType::Dumped;
    const Response parsed = parse_response(serialize(response));
    EXPECT_EQ(parsed.type, ResponseType::Dumped);
    EXPECT_EQ(parsed.body, "");
}

TEST(Dump, ResponseRejectsSizeMismatch) {
    EXPECT_THROW((void)parse_response("DUMPED 10 short"), DataError);
    EXPECT_THROW((void)parse_response("DUMPED 2 too long"), DataError);
    EXPECT_THROW((void)parse_response("DUMPED banana x"), DataError);
    EXPECT_THROW((void)parse_response("DUMPED"), DataError);
}

}  // namespace
}  // namespace adiv::serve
