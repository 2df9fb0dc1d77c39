// The multi-session online detection server.
//
// Threading model (one reader per connection, which does its own work)
//
//   * Every connection gets one reader thread. It reads frames, parses each
//     request in place, handles it, and frames the reply into the
//     connection's output buffer — one request at a time, in arrival order.
//     OPEN and session verbs without a session are answered by the reader
//     itself (cold paths); every other request goes to
//     SessionManager::handle_into on the reader's thread.
//   * Ordering and replay: no protocol verb names a session id, so a
//     session is reachable only from the connection that opened it, and
//     only that connection's reader ever touches its scorer. The reader
//     handles requests in the order a serial replay uses, so served scores
//     are bit-identical to one with no queue in between, and reaching DRAIN
//     in that loop is the barrier. Replies are framed in request order as
//     they are produced; none is ever held back.
//   * One send per read: the output buffer is flushed with one write_all
//     once the reader has handled every frame of one read_some, and
//     whenever it passes kFlushBytes (a read full of DUMP requests cannot
//     hold megabytes of replies).
//   * Backpressure: a reader that is scoring or sending is not reading, so
//     TCP flow control reaches the client with no queue in between. A
//     client that stops reading its replies stalls only its own reader —
//     no other connection's requests wait behind it.
//   * Connections whose reader has ended are reaped — the reader joined,
//     its state freed — by the next attach() and by shutdown().
//
// The per-event path is allocation-free at steady state: frame payloads are
// parsed as views into the decoder's buffer into a reused Request, scoring
// writes into a reused Response, and replies are framed into an output
// buffer that keeps its capacity across flushes. A warm PUSH allocates only
// what its scorer does; WarmPathAllocations.ServedPushPaysAConstantPerBatch
// (tests/alloc) counts it through a Server over a socketpair, on the same
// socket transport the daemon's TCP connections use.
//
// Draining and shutdown: shutdown() stops accepting and closes every
// connection's *input* side only. Each reader then handles the bytes it
// already has (responses still go out), reaches end of stream, closes its
// session, flushes and closes the transport. A client that sends DRAIN and
// waits for DRAINED before CLOSE therefore never loses a response.
//
// Server-level metrics (SessionManager adds the session ones):
//   serve.connections_accepted  counter
//   serve.frames_rejected       counter, malformed frames / requests
//   serve.responses_sent        counter, replies framed for the wire
//   serve.recv_calls            counter, read_some calls on readers
//   serve.send_calls            counter, write_all calls (one per flush)
//
// Profiling (active only while profiling_enabled(); see obs/profile.hpp):
// each handled request is stamped with recv_wait/recv_read/parse/score/
// reply stage durations (reply is the append to the output buffer; the
// end-of-read send falls after total, in no stage), recorded into
// serve.stage.* quantile sketches (obs/sketch.hpp) and appended to the
// session's flight ring, which the reader took at OPEN and writes as its one
// writer (no table lookup per request). The registry is the whole profile:
// every request lands in the sketches, which --metrics, GET /metrics and
// adiv_top read. Traced requests (a trace= context on the wire) additionally leave
// their trace/span ids as the sketch exemplars, and the reader brackets
// their handling in serve.open_handle / serve.shard_handle /
// serve.score_push spans parented under the client's wire span. Wait site
// (SessionManager's, in the same registry):
//   serve.shard.table          the SessionManager shard locks (aggregate)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"

namespace adiv::serve {

struct ServerConfig {
    /// Flight-recorder slots per session (the DUMP verb's window).
    std::size_t flight_capacity = 64;
    /// Session-table shards; 0 = hardware concurrency.
    std::size_t shards = 0;
};

class Server {
public:
    explicit Server(ServerConfig config = {},
                    MetricsRegistry& metrics = global_metrics());

    /// Calls shutdown().
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Registers a trained model; the first one also answers to "default".
    void add_model(const std::string& name,
                   std::shared_ptr<const SequenceDetector> model);

    [[nodiscard]] ModelCatalog& catalog() noexcept { return catalog_; }

    /// Adopts one established connection (socketpair end, accepted socket)
    /// and reaps the connections that have ended since the last call.
    /// Returns false when the server is already shutting down (the transport
    /// is closed in that case).
    bool attach(std::unique_ptr<Transport> transport);

    /// Accept loop: adopts connections from the listener until shutdown()
    /// or until `stop` (checked every poll timeout) returns true. Blocks;
    /// run it from the owning thread.
    void serve(TcpListener& listener, const std::function<bool()>& stop = {});

    /// Graceful drain: stop accepting, stop reading, finish every request
    /// already received (responses are delivered), close connections.
    /// Idempotent; safe from any thread.
    void shutdown();

    /// Blocks until every attached connection has ended (client closed or
    /// server shut down). Useful in tests.
    void wait_connections_closed();

    [[nodiscard]] std::size_t active_sessions() const {
        return sessions_.active_sessions();
    }
    [[nodiscard]] std::size_t connections_accepted() const noexcept {
        return connections_accepted_.value();
    }
    [[nodiscard]] std::size_t shard_count() const noexcept {
        return sessions_.shard_count();
    }

    /// Every live session's flight ring rendered as text (see
    /// SessionManager::dump_all) — the --dump-on-signal payload.
    [[nodiscard]] std::string dump_flight_records() const {
        return sessions_.dump_all();
    }

private:
    struct Connection {
        std::unique_ptr<Transport> transport;
        std::thread reader;
        // Set by the reader as its last act; the connection may then be
        // reaped (its reader joined, this struct freed).
        bool ended = false;  // guarded by Server::mutex_
    };

    /// A connection's per-request state. It lives on the reader's stack and
    /// only the reader touches it; the buffers keep their capacity.
    struct Reader {
        explicit Reader(Transport& t) : transport(t) {}
        Transport& transport;
        bool has_session = false;
        std::uint64_t session_id = 0;
        // The open session's flight ring, taken at OPEN and dropped at
        // CLOSE; profiled requests append to it without a table lookup.
        std::shared_ptr<FlightRecorder> flight;
        Request request;
        Response response;
        std::string payload;  // one serialized reply
        std::string output;   // framed replies awaiting the next flush
    };

    void reader_loop(Connection& connection);
    void read_requests(Reader& reader);
    void handle_request(Reader& reader, std::string_view payload,
                        StageStamps& recv);
    Response answer_sessionless(Reader& reader, const Request& request);
    void reply(Reader& reader, const Response& response);
    void flush(Reader& reader);
    void record_stages(const Request& request, StageStamps& stamps,
                       double frame_t, FlightRecorder* flight,
                       const Response& response);
    void reap_locked();

    ModelCatalog catalog_;
    SessionManager sessions_;
    Counter& connections_accepted_;
    Counter& frames_rejected_;
    Counter& responses_sent_;
    Counter& recv_calls_;
    Counter& send_calls_;
    // Stage sketches (profiling only; registered eagerly so an OpenMetrics
    // scrape shows them, zeroed, even before the first profiled event).
    Sketch& stage_recv_wait_us_;
    Sketch& stage_recv_read_us_;
    Sketch& stage_parse_us_;
    Sketch& stage_score_us_;
    Sketch& stage_reply_us_;
    Sketch& stage_total_us_;

    mutable std::mutex mutex_;
    std::condition_variable connections_changed_;
    std::vector<std::unique_ptr<Connection>> connections_;  // guarded by mutex_
    bool stopping_ = false;                                 // guarded by mutex_
};

}  // namespace adiv::serve
