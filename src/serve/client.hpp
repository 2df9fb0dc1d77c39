// Blocking client for the adiv_serve protocol: one request frame out, one
// response frame in. Used by adiv_loadgen, the serve tests, and anything
// that wants to talk to a detection server without hand-rolling frames.
//
// Not thread-safe: one Client per thread (the server happily handles many
// concurrent connections instead).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "seq/types.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace adiv::serve {

/// Thrown when the server answers with an ERR record.
class ServeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct OpenInfo {
    std::uint64_t session_id = 0;
    std::string detector;
    std::size_t window = 0;
    std::size_t alphabet = 0;
};

class Client {
public:
    explicit Client(std::unique_ptr<Transport> transport);

    /// Sends a request and returns the matching response (possibly ERR).
    /// Throws DataError when the connection drops mid-exchange.
    Response call(const Request& request);

    /// Conveniences; each throws ServeError when the server answers ERR.
    OpenInfo open(const std::string& target);
    std::vector<double> push(SymbolView events);
    Response stats();
    SessionCounts drain();
    /// The session's flight-recorder ring as rendered text (DUMP verb);
    /// requires an open session.
    std::string dump();
    SessionCounts close_session();

    /// Closes the underlying transport (an abrupt end from the server's
    /// point of view unless close_session() ran first).
    void disconnect();

    /// Enables request tracing: every later OPEN/PUSH carries `trace_id`
    /// plus a deterministic per-request span id (SplitMix64-derived from
    /// the trace id and a request counter), and the client brackets the
    /// exchange in a span with those exact ids — the daemon parents its
    /// handling spans under the wire span, so the two sides stitch into one
    /// causal tree. 0 disables tracing (the default).
    void set_trace(std::uint64_t trace_id) noexcept;
    [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }

    /// The span id the most recent traced OPEN/PUSH shipped (0 when
    /// untraced) — lets callers log which request a response belongs to.
    [[nodiscard]] std::uint64_t last_span_id() const noexcept {
        return last_span_id_;
    }

    [[nodiscard]] Transport& transport() noexcept { return *transport_; }

private:
    Response checked(const Request& request);
    void stamp_trace(Request& request) noexcept;

    std::unique_ptr<Transport> transport_;
    FrameDecoder decoder_;
    std::uint64_t trace_id_ = 0;
    std::uint64_t request_index_ = 0;
    std::uint64_t last_span_id_ = 0;
};

}  // namespace adiv::serve
