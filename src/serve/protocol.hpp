// The adiv_serve wire protocol: length-prefixed text frames.
//
// A frame is `<decimal-payload-length> SP <payload-bytes>`; the payload is a
// whitespace-separated record. The framing layer and the record grammar are
// both plain functions over strings, so every protocol path is unit-testable
// without sockets — the transports (serve/transport.hpp) only move bytes.
//
// Request records (client -> server; one response frame per request, in
// request order):
//
//   OPEN <target>          start a session; target names a model the server
//                          has registered ("default", "markov/6"), or an
//                          ensemble spec fusing several registered models
//                          ("stide/6+markov/6;fuse=ds"; the spec grammar is
//                          fusion/spec.hpp). Specs are single tokens, so the
//                          frame grammar is unchanged; OPENED echoes the
//                          canonical spec as <detector> and the max member
//                          window as <dw>
//   PUSH <id> <id> ...     feed events to the open session's OnlineScorer
//
//   OPEN and PUSH accept an optional final `trace=<16hex>:<16hex>` token
//   (trace id : client span id) carrying the request's trace context; the
//   daemon parents its handling spans under it. Absent token = untraced.
//   STATS                  session + server counters, no state change
//   DRAIN                  barrier: everything pushed before this point has
//                          been scored and its responses delivered
//   DUMP                   the session's flight-recorder ring (last K
//                          events with stage stamps) as rendered text;
//                          requires an open session
//   CLOSE                  end the session, report its final counters
//
// Response records (server -> client):
//
//   OPENED <session-id> <detector> <dw> <alphabet>
//   SCORES <n> <v1> ... <vn>        one response per completed window, in
//                                   stream order; 17-significant-digit
//                                   decimal, so doubles round-trip exactly
//   STATS <events> <windows> <alarms> <active-sessions>
//   DRAINED <events> <windows> <alarms>
//   DUMPED <nbytes> <text>          raw flight-recorder rendering; nbytes
//                                   covers the bytes after the single
//                                   separator space (the text embeds
//                                   newlines, which the frame length already
//                                   accounts for)
//   CLOSED <events> <windows> <alarms>
//   ERR <message...>                message runs to the end of the payload
//
// Framing errors (bad length prefix, oversized frame) are unrecoverable —
// the byte stream has lost sync and the connection must close. Record-level
// errors (unknown verb, bad symbol) are answered with ERR and the session
// survives.
//
// The daemon's metrics registry is not on this protocol: it is scraped over
// HTTP (GET /metrics, serve/http_metrics.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "seq/types.hpp"

namespace adiv::serve {

/// Upper bound on a frame payload; a frame announcing more is malformed.
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Wraps a payload in a frame: "<length> <payload>".
std::string encode_frame(std::string_view payload);

/// As encode_frame, but assembles into a caller-owned buffer (cleared
/// first) so a steady-state writer reuses one allocation.
void encode_frame_into(std::string_view payload, std::string& frame);

/// Appends one frame to `out`, so several replies leave in one write.
void append_frame(std::string_view payload, std::string& out);

/// Incremental frame decoder: feed bytes in arbitrary chunks, pull complete
/// payloads. Throws DataError on a malformed length prefix or an oversized
/// announcement; after a throw the stream is out of sync and must be closed.
class FrameDecoder {
public:
    void feed(std::string_view bytes);

    /// Next complete payload, or nullopt when more bytes are needed.
    [[nodiscard]] std::optional<std::string> next();

    /// Zero-copy variant: a view into the decoder's buffer, valid until the
    /// next feed() call — the serve reader parses each payload before
    /// feeding more bytes, so the hot path never copies a payload out.
    [[nodiscard]] std::optional<std::string_view> next_view();

    /// True when no partial frame is buffered (a clean stream boundary).
    [[nodiscard]] bool idle() const noexcept {
        return pos_ == buffer_.size();
    }

private:
    std::string buffer_;
    // Consumed prefix; reclaimed on the next feed() (one amortized memmove
    // of the partial remainder instead of one erase per frame).
    std::size_t pos_ = 0;
};

enum class RequestType { Open, Push, Stats, Drain, Dump, Close };

struct Request {
    RequestType type = RequestType::Stats;
    std::string target;          // Open
    std::vector<Symbol> events;  // Push
    // Optional trace context (Open / Push): serialized as a final
    // `trace=<16hex>:<16hex>` token when trace_id != 0 (0 = untraced, the
    // wire-absent value). span_id is the client-side request span, which
    // becomes the parent of the daemon's handling spans.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
};

/// Session counters carried by STATS / DRAINED / CLOSED.
struct SessionCounts {
    std::uint64_t events = 0;   // events consumed by the scorer
    std::uint64_t windows = 0;  // responses produced
    std::uint64_t alarms = 0;   // responses at/above kMaximalResponse
};

enum class ResponseType { Opened, Scores, Stats, Drained, Dumped, Closed, Error };

struct Response {
    ResponseType type = ResponseType::Error;
    // Opened
    std::uint64_t session_id = 0;
    std::string detector;
    std::size_t window = 0;
    std::size_t alphabet = 0;
    // Scores
    std::vector<double> scores;
    // Stats / Drained / Closed
    SessionCounts counts;
    std::size_t active_sessions = 0;  // Stats only
    // Dumped: raw body text (the flight-recorder rendering)
    std::string body;
    // Error
    std::string message;
};

/// Record serialization. serialize() emits the payload only (no frame);
/// parse_* throw DataError on unknown verbs or malformed fields.
std::string serialize(const Request& request);
std::string serialize(const Response& response);
Request parse_request(std::string_view payload);
Response parse_response(std::string_view payload);

/// Allocation-reusing variants for the serve hot path: the output (cleared
/// first) and the Request's vectors keep their capacity across calls, and
/// PUSH payloads / SCORES responses are formatted without streams or
/// per-token temporaries. Byte-identical to serialize() / parse_request().
void serialize_into(const Response& response, std::string& payload);
void parse_request_into(std::string_view payload, Request& request);

/// Convenience constructors for the error path.
Response error_response(std::string message);

}  // namespace adiv::serve
