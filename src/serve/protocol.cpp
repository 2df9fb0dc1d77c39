#include "serve/protocol.hpp"

#include <cctype>
#include <charconv>
#include <sstream>

#include "obs/trace.hpp"  // hex16 / parse_hex16 for the trace= token
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv::serve {

std::string encode_frame(std::string_view payload) {
    std::string frame;
    encode_frame_into(payload, frame);
    return frame;
}

void encode_frame_into(std::string_view payload, std::string& frame) {
    frame.clear();
    append_frame(payload, frame);
}

void append_frame(std::string_view payload, std::string& out) {
    require(payload.size() <= kMaxFramePayload, "frame payload too large");
    char digits[20];
    const auto [end, ec] =
        std::to_chars(digits, digits + sizeof digits, payload.size());
    ADIV_ASSERT(ec == std::errc());
    out.append(digits, static_cast<std::size_t>(end - digits));
    out += ' ';
    out += payload;
}

void FrameDecoder::feed(std::string_view bytes) {
    if (pos_ > 0) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    buffer_.append(bytes);
}

std::optional<std::string_view> FrameDecoder::next_view() {
    const std::size_t avail = buffer_.size() - pos_;
    if (avail == 0) return std::nullopt;
    const std::string_view rest{buffer_.data() + pos_, avail};
    require_data(std::isdigit(static_cast<unsigned char>(rest[0])) != 0,
                 "malformed frame: length prefix is not a number");
    const std::size_t sep = rest.find(' ');
    // The longest valid prefix announces kMaxFramePayload (7 digits); a run
    // of digits longer than that can never become a valid frame.
    if (sep == std::string_view::npos) {
        require_data(rest.size() <= 8, "malformed frame: unterminated length prefix");
        return std::nullopt;
    }
    std::size_t length = 0;
    const auto [end, ec] = std::from_chars(rest.data(), rest.data() + sep, length);
    require_data(ec == std::errc() && end == rest.data() + sep,
                 "malformed frame: length prefix is not a number");
    require_data(length <= kMaxFramePayload, "malformed frame: payload too large");
    if (avail - sep - 1 < length) return std::nullopt;
    ADIV_ASSERT(pos_ + sep + 1 + length <= buffer_.size());
    pos_ += sep + 1 + length;
    return rest.substr(sep + 1, length);
}

std::optional<std::string> FrameDecoder::next() {
    if (const auto payload = next_view()) return std::string(*payload);
    return std::nullopt;
}

namespace {

constexpr std::string_view kOpen = "OPEN";
constexpr std::string_view kPush = "PUSH";
constexpr std::string_view kStats = "STATS";
constexpr std::string_view kDrain = "DRAIN";
constexpr std::string_view kDump = "DUMP";
constexpr std::string_view kClose = "CLOSE";
constexpr std::string_view kOpened = "OPENED";
constexpr std::string_view kScores = "SCORES";
constexpr std::string_view kDrained = "DRAINED";
constexpr std::string_view kDumped = "DUMPED";
constexpr std::string_view kClosed = "CLOSED";
constexpr std::string_view kErr = "ERR";

void append_u64(std::string& out, std::uint64_t value) {
    char digits[20];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
    ADIV_ASSERT(ec == std::errc());
    out.append(digits, static_cast<std::size_t>(end - digits));
}

void append_double(std::string& out, double value) {
    // %.17g semantics, matching text_serial's write_double (iostream default
    // float format at precision 17) byte for byte — the wire stays
    // round-trip exact and bit-identical to the stream-based serializer.
    char digits[32];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value,
                                         std::chars_format::general, 17);
    ADIV_ASSERT(ec == std::errc());
    out.append(digits, static_cast<std::size_t>(end - digits));
}

constexpr std::string_view kTracePrefix = "trace=";

void append_trace(std::string& out, const Request& request) {
    if (request.trace_id == 0) return;
    out += ' ';
    out += kTracePrefix;
    out += hex16(request.trace_id);
    out += ':';
    out += hex16(request.span_id);
}

/// Parses a `trace=<hex>:<hex>` token into the request; false when the
/// token is not a trace context (callers then report their own error).
bool try_parse_trace(std::string_view token, Request& request) noexcept {
    if (token.substr(0, kTracePrefix.size()) != kTracePrefix) return false;
    const std::string_view body = token.substr(kTracePrefix.size());
    const std::size_t colon = body.find(':');
    if (colon == std::string_view::npos) return false;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    if (!parse_hex16(body.substr(0, colon), trace)) return false;
    if (!parse_hex16(body.substr(colon + 1), span)) return false;
    request.trace_id = trace;
    request.span_id = span;
    return true;
}

void require_done(std::istream& in, std::string_view verb) {
    std::string extra;
    if (in >> extra) throw DataError("trailing junk after " + std::string(verb));
}

constexpr bool is_record_space(char c) noexcept {
    // The characters operator>> skips in the default locale.
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

std::string_view take_token(std::string_view payload, std::size_t& at) noexcept {
    while (at < payload.size() && is_record_space(payload[at])) ++at;
    const std::size_t start = at;
    while (at < payload.size() && !is_record_space(payload[at])) ++at;
    return payload.substr(start, at - start);
}

// The stream-based request parser, kept for the cold verbs (everything but
// PUSH) so their exact error wording is defined in one place.
Request parse_request_stream(std::string_view payload) {
    std::istringstream in{std::string(payload)};
    const std::string verb = read_token(in, "request verb");
    Request request;
    if (verb == kOpen) {
        request.type = RequestType::Open;
        request.target = read_token(in, "OPEN target");
        std::string extra;
        if (in >> extra) {
            require_data(try_parse_trace(extra, request),
                         "trailing junk after OPEN");
            require_done(in, kOpen);
        }
    } else if (verb == kStats) {
        request.type = RequestType::Stats;
        require_done(in, kStats);
    } else if (verb == kDrain) {
        request.type = RequestType::Drain;
        require_done(in, kDrain);
    } else if (verb == kDump) {
        request.type = RequestType::Dump;
        require_done(in, kDump);
    } else if (verb == kClose) {
        request.type = RequestType::Close;
        require_done(in, kClose);
    } else {
        throw DataError("unknown request verb '" + verb + "'");
    }
    return request;
}

}  // namespace

std::string serialize(const Request& request) {
    switch (request.type) {
        case RequestType::Open: {
            require(!request.target.empty() &&
                        request.target.find_first_of(" \t\n\r") == std::string::npos,
                    "OPEN target must be a single non-empty token");
            std::string payload = std::string(kOpen) + " " + request.target;
            append_trace(payload, request);
            return payload;
        }
        case RequestType::Push: {
            require(!request.events.empty(), "PUSH needs at least one event");
            std::string payload(kPush);
            for (const Symbol event : request.events) {
                payload += ' ';
                append_u64(payload, event);
            }
            append_trace(payload, request);
            return payload;
        }
        case RequestType::Stats:
            return std::string(kStats);
        case RequestType::Drain:
            return std::string(kDrain);
        case RequestType::Dump:
            return std::string(kDump);
        case RequestType::Close:
            return std::string(kClose);
    }
    throw InvalidArgument("unknown request type");
}

void serialize_into(const Response& response, std::string& payload) {
    payload.clear();
    switch (response.type) {
        case ResponseType::Opened:
            payload += kOpened;
            payload += ' ';
            append_u64(payload, response.session_id);
            payload += ' ';
            payload += response.detector;
            payload += ' ';
            append_u64(payload, response.window);
            payload += ' ';
            append_u64(payload, response.alphabet);
            return;
        case ResponseType::Scores:
            payload += kScores;
            payload += ' ';
            append_u64(payload, response.scores.size());
            for (const double score : response.scores) {
                payload += ' ';
                append_double(payload, score);
            }
            return;
        case ResponseType::Stats:
            payload += kStats;
            payload += ' ';
            append_u64(payload, response.counts.events);
            payload += ' ';
            append_u64(payload, response.counts.windows);
            payload += ' ';
            append_u64(payload, response.counts.alarms);
            payload += ' ';
            append_u64(payload, response.active_sessions);
            return;
        case ResponseType::Dumped:
            // The byte count delimits the raw body: it starts after the
            // single space following the count and runs exactly that many
            // bytes (newlines included — the frame length covers them).
            payload += kDumped;
            payload += ' ';
            append_u64(payload, response.body.size());
            payload += ' ';
            payload += response.body;
            return;
        case ResponseType::Drained:
        case ResponseType::Closed:
            payload += response.type == ResponseType::Drained ? kDrained : kClosed;
            payload += ' ';
            append_u64(payload, response.counts.events);
            payload += ' ';
            append_u64(payload, response.counts.windows);
            payload += ' ';
            append_u64(payload, response.counts.alarms);
            return;
        case ResponseType::Error:
            payload += kErr;
            payload += ' ';
            payload += response.message;
            return;
    }
    throw InvalidArgument("unknown response type");
}

std::string serialize(const Response& response) {
    std::string payload;
    serialize_into(response, payload);
    return payload;
}

void parse_request_into(std::string_view payload, Request& request) {
    request.target.clear();
    request.events.clear();
    request.trace_id = 0;
    request.span_id = 0;
    std::size_t at = 0;
    const std::string_view verb = take_token(payload, at);
    if (verb == kPush) {
        // The hot verb: scan tokens in place — no stream, no temporaries.
        request.type = RequestType::Push;
        for (;;) {
            const std::string_view token = take_token(payload, at);
            if (token.empty()) break;
            std::uint32_t value = 0;
            const auto [end, ec] =
                std::from_chars(token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && end == token.data() + token.size()) {
                request.events.push_back(value);
                continue;
            }
            // Cold branch: the only non-numeric token PUSH admits is a
            // final trace context — digit-only payloads never get here, so
            // the hot loop stays one from_chars per event.
            if (try_parse_trace(token, request)) {
                require_data(take_token(payload, at).empty(),
                             "PUSH trace context must be the final token");
                break;
            }
            require_data(false, "PUSH event '" + std::string(token) +
                                    "' is not a symbol id");
        }
        require_data(!request.events.empty(), "PUSH carries no events");
        return;
    }
    request = parse_request_stream(payload);
}

Request parse_request(std::string_view payload) {
    Request request;
    parse_request_into(payload, request);
    return request;
}

Response parse_response(std::string_view payload) {
    std::istringstream in{std::string(payload)};
    const std::string verb = read_token(in, "response verb");
    Response response;
    if (verb == kOpened) {
        response.type = ResponseType::Opened;
        response.session_id = read_u64(in, "session id");
        response.detector = read_token(in, "detector name");
        response.window = read_size(in, "window length");
        response.alphabet = read_size(in, "alphabet size");
        require_done(in, kOpened);
    } else if (verb == kScores) {
        response.type = ResponseType::Scores;
        // Grown as read: the count is the peer's claim, not an allocation.
        const std::size_t count = read_size(in, "score count");
        for (std::size_t i = 0; i < count; ++i)
            response.scores.push_back(read_double(in, "score"));
        require_done(in, kScores);
    } else if (verb == kStats) {
        response.type = ResponseType::Stats;
        response.counts.events = read_u64(in, "events");
        response.counts.windows = read_u64(in, "windows");
        response.counts.alarms = read_u64(in, "alarms");
        response.active_sessions = read_size(in, "active sessions");
        require_done(in, kStats);
    } else if (verb == kDumped) {
        response.type = ResponseType::Dumped;
        // Raw-byte field: parsed off the payload directly, because the
        // body embeds spaces and newlines that token extraction would
        // destroy.
        const std::size_t verb_end = payload.find(' ');
        require_data(verb_end != std::string_view::npos,
                     "DUMPED is missing its byte count");
        const std::size_t size_end = payload.find(' ', verb_end + 1);
        require_data(size_end != std::string_view::npos,
                     "DUMPED is missing its body");
        std::size_t nbytes = 0;
        const char* first = payload.data() + verb_end + 1;
        const char* last = payload.data() + size_end;
        const auto [end, ec] = std::from_chars(first, last, nbytes);
        require_data(ec == std::errc() && end == last,
                     "DUMPED byte count is not a number");
        const std::string_view body = payload.substr(size_end + 1);
        require_data(body.size() == nbytes,
                     "DUMPED byte count disagrees with its body");
        response.body = std::string(body);
    } else if (verb == kDrained || verb == kClosed) {
        response.type =
            verb == kDrained ? ResponseType::Drained : ResponseType::Closed;
        response.counts.events = read_u64(in, "events");
        response.counts.windows = read_u64(in, "windows");
        response.counts.alarms = read_u64(in, "alarms");
        require_done(in, verb);
    } else if (verb == kErr) {
        response.type = ResponseType::Error;
        std::string rest;
        std::getline(in, rest);
        // Drop the separator space after the verb; keep the message verbatim.
        if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
        response.message = rest;
    } else {
        throw DataError("unknown response verb '" + verb + "'");
    }
    return response;
}

Response error_response(std::string message) {
    Response response;
    response.type = ResponseType::Error;
    response.message = std::move(message);
    return response;
}

}  // namespace adiv::serve
