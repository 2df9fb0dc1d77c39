#include "serve/server.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv::serve {

namespace {

std::size_t resolve_shards(std::size_t shards) {
    // hardware_concurrency() may report 0; SessionManager clamps to 1.
    return shards != 0 ? shards : std::thread::hardware_concurrency();
}

// A connection's output buffer is flushed once it passes this, so a read
// full of DUMP requests cannot hold megabytes of replies.
constexpr std::size_t kFlushBytes = 64 * 1024;

std::string_view verb_of(RequestType type) noexcept {
    switch (type) {
        case RequestType::Open: return "OPEN";
        case RequestType::Push: return "PUSH";
        case RequestType::Stats: return "STATS";
        case RequestType::Drain: return "DRAIN";
        case RequestType::Dump: return "DUMP";
        case RequestType::Close: return "CLOSE";
    }
    return "?";
}

}  // namespace

Server::Server(ServerConfig config, MetricsRegistry& metrics)
    : sessions_(catalog_,
                // Every session's scorer keeps its default buffer (4*DW).
                SessionConfig{0, config.flight_capacity,
                              resolve_shards(config.shards)},
                metrics),
      connections_accepted_(metrics.counter("serve.connections_accepted")),
      frames_rejected_(metrics.counter("serve.frames_rejected")),
      responses_sent_(metrics.counter("serve.responses_sent")),
      recv_calls_(metrics.counter("serve.recv_calls")),
      send_calls_(metrics.counter("serve.send_calls")),
      stage_recv_wait_us_(metrics.sketch("serve.stage.recv_wait_us")),
      stage_recv_read_us_(metrics.sketch("serve.stage.recv_read_us")),
      stage_parse_us_(metrics.sketch("serve.stage.parse_us")),
      stage_score_us_(metrics.sketch("serve.stage.score_us")),
      stage_reply_us_(metrics.sketch("serve.stage.reply_us")),
      stage_total_us_(metrics.sketch("serve.stage.total_us")) {}

Server::~Server() { shutdown(); }

void Server::add_model(const std::string& name,
                       std::shared_ptr<const SequenceDetector> model) {
    catalog_.add(name, std::move(model));
}

bool Server::attach(std::unique_ptr<Transport> transport) {
    require(transport != nullptr, "cannot attach a null transport");
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            transport->close();
            return false;
        }
        reap_locked();
        Connection& connection =
            *connections_.emplace_back(std::make_unique<Connection>());
        connection.transport = std::move(transport);
        // Started under the lock: the reader cannot mark itself ended, and
        // so be reaped, before its thread handle is stored.
        connection.reader =
            std::thread([this, &connection] { reader_loop(connection); });
    }
    connections_accepted_.add(1);
    return true;
}

void Server::serve(TcpListener& listener, const std::function<bool()>& stop) {
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) return;
        }
        if (stop && stop()) return;
        std::unique_ptr<Transport> transport = listener.accept(/*timeout_ms=*/100);
        if (transport) attach(std::move(transport));
    }
}

void Server::shutdown() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        // First caller: stop every live reader at its next read. The bytes a
        // reader already has are still handled and answered — this is the
        // graceful part of the drain. An ended reader has closed its
        // transport under this lock, so none is touched after its close.
        if (!std::exchange(stopping_, true))
            for (const auto& connection : connections_)
                if (!connection->ended) connection->transport->shutdown_input();
    }
    wait_connections_closed();
    const std::lock_guard<std::mutex> lock(mutex_);
    reap_locked();
}

void Server::wait_connections_closed() {
    std::unique_lock<std::mutex> lock(mutex_);
    connections_changed_.wait(lock, [this] {
        return std::all_of(connections_.begin(), connections_.end(),
                           [](const auto& connection) { return connection->ended; });
    });
}

void Server::reap_locked() {
    // A reader marks its connection ended as its last act under mutex_, so
    // each join returns at once, and nothing else refers to the connection.
    for (const auto& connection : connections_)
        if (connection->ended) connection->reader.join();
    std::erase_if(connections_,
                  [](const auto& connection) { return connection->ended; });
}

void Server::reader_loop(Connection& connection) {
    Reader reader(*connection.transport);
    try {
        read_requests(reader);
    } catch (const std::exception& fatal) {
        // The byte stream lost frame sync (or the transport failed): answer
        // ERR, then end the stream as a clean EOF does (ERR first, so the
        // client sees why before the close).
        frames_rejected_.add(1);
        reply(reader, error_response(fatal.what()));
    }
    // End of stream: the session closes after every request the client
    // managed to send, and before the connection counts as ended, so
    // wait_connections_closed() implies cleanup.
    if (reader.has_session) sessions_.disconnect(reader.session_id);
    try {
        flush(reader);
    } catch (const std::exception&) {
        // The transport failed; closing it is all that is left to do.
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        connection.transport->close();
        connection.ended = true;
    }
    connections_changed_.notify_all();
}

void Server::read_requests(Reader& reader) {
    FrameDecoder decoder;
    char buffer[16384];
    // recv accounting: blocked-read time accumulates and is attributed to
    // the *next* completed frame, split by what the wait meant — a read from
    // a clean frame boundary was waiting for the client to send anything
    // (recv_wait, think time), a read mid-frame was receiving a request
    // already on the wire (recv_read, work).
    StageStamps recv;
    for (;;) {
        std::size_t n = 0;
        {
            const StageTimer timer(decoder.idle() ? recv.recv_wait_us
                                                  : recv.recv_read_us);
            n = reader.transport.read_some(buffer, sizeof buffer);
        }
        recv_calls_.add(1);
        if (n == 0) break;
        decoder.feed({buffer, n});
        // next_view() throws on framing errors (fatal, handled by the
        // caller); the views stay valid until the next feed(), and every
        // payload is handled before more bytes are fed.
        while (auto payload = decoder.next_view()) {
            handle_request(reader, *payload, recv);
            if (reader.output.size() >= kFlushBytes) flush(reader);
        }
        // One send for every reply this read produced.
        flush(reader);
    }
    if (!decoder.idle()) throw DataError("connection closed mid-frame");
}

void Server::handle_request(Reader& reader, std::string_view payload,
                            StageStamps& recv) {
    // The frame inherits the recv time that preceded it; the reader's
    // accumulator starts over for the next frame. frame_t > 0 marks a
    // stamped request (trace_clock_seconds() is measured from the first
    // call in the process, so 0 cannot collide).
    StageStamps stamps = std::exchange(recv, StageStamps{});
    const double frame_t = profiling_enabled() ? trace_clock_seconds() : 0.0;
    Request& request = reader.request;
    try {
        const StageTimer parse(stamps.parse_us);
        // The reused Request keeps its events' capacity, so a PUSH grows it
        // only up to the largest frame.
        parse_request_into(payload, request);
    } catch (const std::exception& record_error) {
        // A well-framed but unparseable record: answered with ERR, the
        // connection (and any session) survives. Malformed records are cold;
        // only they build an error message.
        frames_rejected_.add(1);
        reply(reader, error_response(record_error.what()));
        return;
    }

    const bool session_verb =
        reader.has_session && request.type != RequestType::Open;
    // Session verbs score into the reused response; the reader's own
    // answers (OPEN, errors) are cold and build a fresh one.
    Response cold;
    {
        const StageTimer score(stamps.score_us);
        if (session_verb) {
            // Double gate: the wire context is installed (and the handling
            // span opened) only for traced requests with a live sink — the
            // trace_id check short-circuits, so untraced traffic never
            // takes the global-sink lock.
            std::optional<ScopedTraceContext> trace_scope;
            std::optional<TraceSpan> handle_span;
            if (request.trace_id != 0 && global_trace_sink()->enabled()) {
                trace_scope.emplace(TraceContext{request.trace_id, request.span_id});
                handle_span.emplace("serve.shard_handle");
            }
            // A warm PUSH allocates only inside its scorer (tests/alloc
            // counts it); the verbs that do allocate (error text, DUMP,
            // STATS) are cold admin traffic.
            sessions_.handle_into(reader.session_id, request, reader.response);
        } else {
            cold = answer_sessionless(reader, request);
        }
    }
    const Response& response = session_verb ? reader.response : cold;
    // A CLOSE ends the binding: a request behind it is answered "no open
    // session", and nothing more lands in the closed session's flight ring.
    if (session_verb && request.type == RequestType::Close) {
        reader.has_session = false;
        reader.flight.reset();
    }
    {
        const StageTimer reply_timer(stamps.reply_us);
        reply(reader, response);
    }
    if (frame_t > 0.0)
        record_stages(request, stamps, frame_t, reader.flight.get(), response);
}

Response Server::answer_sessionless(Reader& reader, const Request& request) {
    // Requests the reader answers without a session: OPEN (the reader owns
    // the connection -> session binding) and session verbs without a
    // session. Both are cold paths — allocation here is fine.
    if (request.type != RequestType::Open)
        return error_response("no open session");
    // Double gate: traced request AND live sink, so untraced runs skip the
    // global-sink lookup entirely.
    std::optional<ScopedTraceContext> trace_scope;
    std::optional<TraceSpan> open_span;
    if (request.trace_id != 0 && global_trace_sink()->enabled()) {
        trace_scope.emplace(TraceContext{request.trace_id, request.span_id});
        open_span.emplace("serve.open_handle");
    }
    if (reader.has_session)
        return error_response("session already open (CLOSE it first)");
    try {
        std::shared_ptr<FlightRecorder> flight;
        Response response = sessions_.open(request.target, &flight);
        reader.session_id = response.session_id;
        reader.has_session = true;
        reader.flight = std::move(flight);
        return response;
    } catch (const std::exception& open_error) {
        return error_response(open_error.what());
    }
}

void Server::reply(Reader& reader, const Response& response) {
    serialize_into(response, reader.payload);
    append_frame(reader.payload, reader.output);
    responses_sent_.add(1);
}

void Server::flush(Reader& reader) {
    if (reader.output.empty()) return;
    // Writes after the peer closed are discarded by the transport; a TCP
    // write may block on flow control, which holds this connection's
    // reader and nothing else.
    reader.transport.write_all(reader.output.data(), reader.output.size());
    reader.output.clear();
    send_calls_.add(1);
}

void Server::record_stages(const Request& request, StageStamps& stamps,
                           double frame_t, FlightRecorder* flight,
                           const Response& response) {
    // total = frame completion -> reply framed, plus the recv time that
    // preceded the frame. Every stage is a disjoint sub-interval, so
    // stage_sum_us() <= total_us.
    stamps.total_us = (trace_clock_seconds() - frame_t) * 1e6 +
                      stamps.recv_wait_us + stamps.recv_read_us;
    // Traced requests leave their ids as sketch exemplars, so a scraped
    // tail latency names the spans that produced it.
    const std::uint64_t trace = request.trace_id;
    const std::uint64_t span = request.span_id;
    stage_recv_wait_us_.record(stamps.recv_wait_us, trace, span);
    stage_recv_read_us_.record(stamps.recv_read_us, trace, span);
    stage_parse_us_.record(stamps.parse_us, trace, span);
    stage_score_us_.record(stamps.score_us, trace, span);
    stage_reply_us_.record(stamps.reply_us, trace, span);
    stage_total_us_.record(stamps.total_us, trace, span);
    const bool ok = response.type != ResponseType::Error;
    if (flight != nullptr) {
        FlightRecord record;
        record.set_verb(verb_of(request.type));
        record.set_outcome(ok ? "ok" : "err");
        record.events = static_cast<std::uint32_t>(request.events.size());
        record.scores = static_cast<std::uint32_t>(response.scores.size());
        record.recv_wait_us = static_cast<float>(stamps.recv_wait_us);
        record.recv_read_us = static_cast<float>(stamps.recv_read_us);
        record.parse_us = static_cast<float>(stamps.parse_us);
        record.score_us = static_cast<float>(stamps.score_us);
        record.reply_us = static_cast<float>(stamps.reply_us);
        record.total_us = static_cast<float>(stamps.total_us);
        flight->record(record);
    }
}

}  // namespace adiv::serve
