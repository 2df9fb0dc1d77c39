#include "serve/server.hpp"

#include <limits>
#include <optional>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv::serve {

namespace {

std::size_t resolve_shards(const ServerConfig& config) {
    if (config.shards != 0) return config.shards;
    return config.jobs != 0 ? config.jobs : ThreadPool::default_jobs();
}

// queue_capacity 0 used to mean "unbounded"; the slot arena and shard rings
// are fixed-size, so it now resolves to a bound large enough that no real
// client pipelines past it.
std::size_t resolve_bound(std::size_t queue_capacity) {
    return queue_capacity != 0 ? queue_capacity : 1024;
}

// A connection's output buffer is flushed once it passes this, so a read
// full of METRICS or DUMP requests cannot hold megabytes of replies.
constexpr std::size_t kFlushBytes = 64 * 1024;

std::string_view verb_of(RequestType type) noexcept {
    switch (type) {
        case RequestType::Open: return "OPEN";
        case RequestType::Push: return "PUSH";
        case RequestType::Stats: return "STATS";
        case RequestType::Metrics: return "METRICS";
        case RequestType::Drain: return "DRAIN";
        case RequestType::Dump: return "DUMP";
        case RequestType::Close: return "CLOSE";
    }
    return "?";
}

}  // namespace

Server::Server(ServerConfig config, MetricsRegistry& metrics)
    : config_(config),
      bound_(resolve_bound(config.queue_capacity)),
      metrics_(&metrics),
      catalog_(config.allow_model_paths),
      sessions_(catalog_,
                SessionConfig{config.scorer_buffer, config.flight_capacity,
                              resolve_shards(config)},
                metrics),
      connections_accepted_(metrics.counter("serve.connections_accepted")),
      frames_rejected_(metrics.counter("serve.frames_rejected")),
      responses_sent_(metrics.counter("serve.responses_sent")),
      recv_calls_(metrics.counter("serve.recv_calls")),
      send_calls_(metrics.counter("serve.send_calls")),
      strand_handoffs_(metrics.counter("serve.strand_handoffs")),
      queue_depth_(metrics.gauge("serve.queue_depth")),
      stage_recv_wait_us_(
          metrics.sketch("serve.stage.recv_wait_us", resolve_shards(config) + 1)),
      stage_recv_read_us_(
          metrics.sketch("serve.stage.recv_read_us", resolve_shards(config) + 1)),
      stage_parse_us_(
          metrics.sketch("serve.stage.parse_us", resolve_shards(config) + 1)),
      stage_queue_us_(
          metrics.sketch("serve.stage.queue_us", resolve_shards(config) + 1)),
      stage_score_us_(
          metrics.sketch("serve.stage.score_us", resolve_shards(config) + 1)),
      stage_reply_us_(
          metrics.sketch("serve.stage.reply_us", resolve_shards(config) + 1)),
      stage_total_us_(
          metrics.sketch("serve.stage.total_us", resolve_shards(config) + 1)),
      shard_queue_depth_(metrics.sketch("serve.shard.queue_depth")),
      slot_wait_site_(wait_site("serve.shard.slot_wait")),
      enqueue_block_site_(wait_site("serve.shard.enqueue_block")),
      wakeup_site_(wait_site("serve.shard.wakeup")),
      pool_(config.jobs) {
    const std::size_t shard_count = sessions_.shard_count();
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        auto shard = std::make_unique<Shard>();
        // adiv-lint: allow(guarded-by, "pre-publication: the shard is not in shards_ yet, no reader or strand can see it")
        shard->ring.resize(bound_);
        shards_.push_back(std::move(shard));
    }
}

Server::~Server() { shutdown(); }

void Server::add_model(const std::string& name,
                       std::shared_ptr<const SequenceDetector> model) {
    catalog_.add(name, std::move(model));
}

bool Server::attach(std::unique_ptr<Transport> transport) {
    require(transport != nullptr, "cannot attach a null transport");
    Connection* connection = nullptr;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            transport->close();
            return false;
        }
        connections_.push_back(std::make_unique<Connection>());
        connection = connections_.back().get();
        connection->transport = std::move(transport);
        connection->slots.resize(bound_);
        // adiv-lint: allow(guarded-by, "pre-publication: the reader thread that shares this arena starts below")
        connection->free_slots.reserve(bound_);
        for (std::size_t i = bound_; i > 0; --i)
            // adiv-lint: allow(guarded-by, "pre-publication: the reader thread that shares this arena starts below")
            connection->free_slots.push_back(static_cast<std::uint32_t>(i - 1));
        ++open_connections_;
    }
    connections_accepted_.add(1);
    connection->reader = std::thread([this, connection] { reader_loop(*connection); });
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
    std::vector<Connection*> to_drain;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!stopping_) {
            stopping_ = true;
            for (const auto& connection : connections_)
                to_drain.push_back(connection.get());
        }
    }
    // First caller: stop the readers at the next frame boundary. Queued
    // requests keep flowing through the shard strands and their responses
    // are still written — this is the graceful part of the drain.
    for (Connection* connection : to_drain)
        connection->transport->shutdown_input();
    wait_connections_closed();
    // Join every reader, including those of connections that ended earlier.
    // Guarded by mutex_ so concurrent shutdown() calls do not double-join.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& connection : connections_)
        if (connection->reader.joinable()) connection->reader.join();
}

void Server::wait_connections_closed() {
    std::unique_lock<std::mutex> lock(mutex_);
    connections_changed_.wait(lock, [this] { return open_connections_ == 0; });
}

void Server::reader_loop(Connection& connection) {
    FrameDecoder decoder;
    try {
        char buffer[16384];
        // recv accounting: blocked-read time accumulates and is attributed
        // to the *next* completed frame, split by what the wait meant — a
        // read from a clean frame boundary was waiting for the client to
        // send anything (recv_wait, think time), a read mid-frame was
        // receiving a request already on the wire (recv_read, work).
        StageStamps recv;
        for (;;) {
            std::size_t n = 0;
            {
                const StageTimer timer(decoder.idle() ? recv.recv_wait_us
                                                      : recv.recv_read_us);
                n = connection.transport->read_some(buffer, sizeof buffer);
            }
            recv_calls_.add(1);
            if (n == 0) break;
            decoder.feed({buffer, n});
            // next_view() throws on framing errors (fatal, handled below);
            // the views stay valid until the next feed(), and every payload
            // is parsed before more bytes are fed.
            while (auto payload = decoder.next_view())
                handle_payload(connection, *payload, recv);
            // One send for every reply this read produced and still holds.
            flush(connection);
        }
        if (!decoder.idle()) {
            frames_rejected_.add(1);
            reader_fatal(connection, "connection closed mid-frame");
            return;
        }
    } catch (const std::exception& fatal) {
        frames_rejected_.add(1);
        reader_fatal(connection, fatal.what());
        return;
    }
    reader_eof(connection);
}

void Server::handle_payload(Connection& connection, std::string_view payload,
                            StageStamps& recv) {
    const std::uint32_t slot = claim_slot(connection);
    RunItem& item = connection.slots[slot];
    item.kind = RunItem::Kind::Request;
    // The frame inherits the recv time that preceded it; the reader's
    // accumulator starts over for the next frame.
    item.stamps = std::exchange(recv, StageStamps{});
    item.frame_t = profiling_enabled() ? trace_clock_seconds() : 0.0;
    try {
        const StageTimer parse(item.stamps.parse_us);
        parse_request_into(payload, item.request);
    } catch (const std::exception& record_error) {
        // A well-framed but unparseable record: answered with ERR, the
        // connection (and any session) survives.
        frames_rejected_.add(1);
        const Response response = error_response(record_error.what());
        deliver(connection, connection.next_seq++, &response);
        release_slot(connection, slot);
        return;
    }

    const RequestType type = item.request.type;
    if (type != RequestType::Open && connection.has_session) {
        item.seq = connection.next_seq++;
        item.session_id = connection.session_id;
        // The reader's view of the binding advances at enqueue time, so a
        // pipelined request behind a CLOSE is answered "no open session"
        // exactly as it would be after the CLOSE completed.
        if (type == RequestType::Close) connection.has_session = false;
        enqueue_run(connection, slot);
        return;
    }

    Response response;
    {
        const StageTimer score(item.stamps.score_us);
        response = answer_inline(connection, item.request);
    }
    const std::uint64_t seq = connection.next_seq++;
    {
        const StageTimer reply(item.stamps.reply_us);
        deliver(connection, seq, &response);
    }
    if (item.frame_t > 0.0) {
        // adiv-lint: allow(hot-path, "profiling-only path; the JSON stage record is 1-in-N sampled diagnostics")
        record_stages(item, connection.has_session ? connection.session_id : 0,
                      response, /*lane=*/0);
    }
    release_slot(connection, slot);
}

Response Server::answer_inline(Connection& connection, const Request& request) {
    // Requests the reader answers itself, off the shard path: OPEN (the
    // reader owns the connection -> session binding, and must know the
    // outcome to route what follows), METRICS before any session (scrape
    // clients never open one), and session verbs without a session. All are
    // cold paths — allocation here is fine.
    if (request.type != RequestType::Open)
        return request.type == RequestType::Metrics
                   ? metrics_response(*metrics_)
                   : error_response("no open session");
    // Double gate: traced request AND live sink, so untraced runs skip the
    // global-sink lookup entirely.
    std::optional<ScopedTraceContext> trace_scope;
    std::optional<TraceSpan> open_span;
    if (request.trace_id != 0 && global_trace_sink()->enabled()) {
        trace_scope.emplace(TraceContext{request.trace_id, request.span_id});
        open_span.emplace("serve.open_handle");
    }
    if (connection.has_session)
        return error_response("session already open (CLOSE it first)");
    try {
        const std::uint64_t id = sessions_.reserve_id();
        Response response = sessions_.open_with_id(id, request.target);
        connection.session_id = id;
        connection.has_session = true;
        connection.shard_index = sessions_.shard_of(id);
        return response;
    } catch (const std::exception& open_error) {
        return error_response(open_error.what());
    }
}

void Server::reader_eof(Connection& connection) {
    if (connection.has_session) {
        // The session must close at its place in the stream — after every
        // request the client managed to send — and before the connection
        // counts as closed, so wait_connections_closed() implies cleanup.
        const std::uint32_t slot = claim_slot(connection);
        RunItem& item = connection.slots[slot];
        item.kind = RunItem::Kind::Disconnect;
        item.seq = connection.next_seq++;
        item.session_id = connection.session_id;
        item.frame_t = 0.0;
        connection.has_session = false;
        enqueue_run(connection, slot);
    }
    deliver_eos(connection, connection.next_seq);
}

void Server::reader_fatal(Connection& connection, const std::string& message) {
    // The byte stream lost frame sync: answer ERR, then run the normal end
    // of stream (ERR first, so the client sees why before the close).
    const Response response = error_response(message);
    deliver(connection, connection.next_seq++, &response);
    reader_eof(connection);
}

std::uint32_t Server::claim_slot(Connection& connection) {
    // At most two passes: an empty arena means this reader is about to
    // block, so the first pass leaves the lock to flush the replies it
    // holds (they must not wait out the block), and the second waits.
    for (bool flushed = false;; flushed = true) {
        {
            std::unique_lock<std::mutex> lock(connection.slot_mutex);
            const auto available = [&connection] {
                return !connection.free_slots.empty();
            };
            if (flushed || available()) {
                wait_at(slot_wait_site_, available,
                        [&] { connection.slot_available.wait(lock, available); });
                const std::uint32_t slot = connection.free_slots.back();
                connection.free_slots.pop_back();
                return slot;
            }
        }
        flush(connection);
    }
}

void Server::release_slot(Connection& connection, std::uint32_t slot) {
    {
        const std::lock_guard<std::mutex> lock(connection.slot_mutex);
        // adiv-lint: allow(hot-path, "free_slots is reserved to the arena size at attach; push_back never reallocates")
        connection.free_slots.push_back(slot);
    }
    connection.slot_available.notify_one();
}

void Server::enqueue_run(Connection& connection, std::uint32_t slot) {
    const std::size_t index = connection.shard_index;
    Shard& shard = *shards_[index];
    const bool stamp = profiling_enabled();
    bool run = false;
    std::size_t depth = 0;
    // At most two passes, as in claim_slot: flush before blocking on a full
    // ring.
    for (bool flushed = false;; flushed = true) {
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            const auto space = [&shard] {
                return shard.count < shard.ring.size();
            };
            if (flushed || space()) {
                // Backpressure: readers wait for run-queue space, which TCP
                // flow control propagates to the client.
                wait_at(enqueue_block_site_, space,
                        [&] { shard.space.wait(lock, space); });
                Shard::Entry& entry =
                    shard.ring[(shard.head + shard.count) % shard.ring.size()];
                entry.connection = &connection;
                entry.slot = slot;
                ++shard.count;
                depth = shard.count;
                connection.slots[slot].enqueued_t =
                    stamp ? trace_clock_seconds() : 0.0;
                run = !std::exchange(shard.scheduled, true);
                break;
            }
        }
        flush(connection);
    }
    queue_depth_.set(static_cast<double>(depth));
    if (stamp) shard_queue_depth_.record(static_cast<double>(depth));
    // The reader that finds the shard idle runs its strand; past bound_
    // items with more queued, the strand moves to the pool and this reader
    // returns to its own connection.
    if (run && run_shard(index, &connection, bound_)) hand_off(index);
}

// Runs shard `shard_index`'s strand until its ring drains (it unschedules
// and returns false) or `budget` items have run with more queued (it stays
// scheduled and returns true: the caller must hand it on). Replies for
// connections other than `owner` are flushed as they are delivered; a
// reader's own stay buffered for its end-of-read flush. noexcept: as on a
// pool worker, a failure inside a strand ends the process rather than
// unwinding through a reader while the shard is still scheduled.
// adiv-hot
bool Server::run_shard(std::size_t shard_index, const Connection* owner,
                       std::size_t budget) noexcept {
    Shard& shard = *shards_[shard_index];
    for (std::size_t ran = 0;; ++ran) {
        Connection* connection = nullptr;
        std::uint32_t slot = 0;
        {
            const std::lock_guard<std::mutex> lock(shard.mutex);
            if (shard.count == 0) {
                // Drained: unschedule under the lock, so the next enqueue
                // observes it and runs the strand itself.
                shard.scheduled = false;
                return false;
            }
            if (ran == budget) return true;
            const Shard::Entry& entry = shard.ring[shard.head];
            connection = entry.connection;
            slot = entry.slot;
            shard.head = (shard.head + 1) % shard.ring.size();
            --shard.count;
        }
        shard.space.notify_one();
        process_item(*connection, connection->slots[slot],
                     shard.response_scratch, connection != owner);
        release_slot(*connection, slot);
    }
}

void Server::hand_off(std::size_t shard_index) {
    // The next free worker runs the strand. It is still scheduled, so no
    // reader runs it meanwhile and at most one handoff per shard is queued;
    // submit never blocks — the bounded ring is the admission control.
    strand_handoffs_.add(1);
    const double handed_t = profiling_enabled() ? trace_clock_seconds() : 0.0;
    pool_.submit([this, shard_index, handed_t] {
        if (handed_t > 0.0)
            wakeup_site_.record_wait_us((trace_clock_seconds() - handed_t) *
                                        1e6);
        run_shard(shard_index, nullptr, std::numeric_limits<std::size_t>::max());
    });
}

void Server::process_item(Connection& connection, RunItem& item,
                          Response& scratch, bool send_now) {
    if (item.kind == RunItem::Kind::Disconnect) {
        sessions_.disconnect(item.session_id);
        deliver(connection, item.seq, nullptr, send_now);
        return;
    }
    // Double gate: the wire context is installed (and the handling span
    // opened) only for traced requests with a live sink — the trace_id
    // check short-circuits, so untraced traffic never takes the global-sink
    // lock.
    std::optional<ScopedTraceContext> trace_scope;
    std::optional<TraceSpan> handle_span;
    if (item.request.trace_id != 0 && global_trace_sink()->enabled()) {
        trace_scope.emplace(
            TraceContext{item.request.trace_id, item.request.span_id});
        // adiv-lint: allow(hot-path, "traced requests only; the span is the product, not overhead")
        handle_span.emplace("serve.shard_handle");
    }
    const bool stamped = item.frame_t > 0.0 && profiling_enabled();
    if (stamped)
        item.stamps.queue_us = (trace_clock_seconds() - item.enqueued_t) * 1e6;
    {
        const StageTimer score(item.stamps.score_us);
        // adiv-lint: allow(hot-path, "PUSH replies are allocation-free; the verbs that do allocate (error text, METRICS, DUMP, STATS) are cold admin traffic")
        sessions_.handle_into(item.session_id, item.request, scratch);
    }
    {
        const StageTimer reply(item.stamps.reply_us);
        deliver(connection, item.seq, &scratch, send_now);
    }
    if (stamped) {
        // adiv-lint: allow(hot-path, "profiling-only path; the JSON stage record is 1-in-N sampled diagnostics")
        record_stages(item, item.session_id, scratch,
                      sessions_.shard_of(item.session_id) + 1);
    }
}

void Server::deliver(Connection& connection, std::uint64_t seq,
                     const Response* response, bool send_now) {
    const std::lock_guard<std::mutex> lock(connection.write_mutex);
    if (seq != connection.next_write_seq) {
        // Out of turn: park the reply (or the silent advance). Only
        // cross-shard pipelining reaches here — a single-session connection
        // delivers in order by construction — so the copy is cold.
        HeldReply& held = connection.held[seq];
        held.write = response != nullptr;
        if (response != nullptr) held.response = *response;
        return;
    }
    if (response != nullptr) write_locked(connection, *response);
    advance_locked(connection);
    if (send_now) flush_locked(connection);
}

void Server::deliver_eos(Connection& connection, std::uint64_t seq) {
    const std::lock_guard<std::mutex> lock(connection.write_mutex);
    connection.eos_set = true;
    connection.eos_seq = seq;
    if (connection.next_write_seq >= seq) finish_locked(connection);
}

void Server::flush(Connection& connection) {
    const std::lock_guard<std::mutex> lock(connection.write_mutex);
    flush_locked(connection);
}

void Server::flush_locked(Connection& connection) {
    if (connection.output.empty()) return;
    // Writes after the peer closed are discarded by the transport; a TCP
    // write may block on flow control, which holds this connection's
    // sequencer (head-of-line on one connection, by design — its replies
    // are ordered) but no shard lock.
    connection.transport->write_all(connection.output.data(),
                                    connection.output.size());
    connection.output.clear();
    send_calls_.add(1);
}

void Server::write_locked(Connection& connection, const Response& response) {
    if (connection.finished) return;
    serialize_into(response, connection.payload_scratch);
    append_frame(connection.payload_scratch, connection.output);
    responses_sent_.add(1);
    if (connection.output.size() >= kFlushBytes) flush_locked(connection);
}

void Server::advance_locked(Connection& connection) {
    ++connection.next_write_seq;
    auto it = connection.held.begin();
    while (it != connection.held.end() &&
           it->first == connection.next_write_seq) {
        if (it->second.write) write_locked(connection, it->second.response);
        ++connection.next_write_seq;
        it = connection.held.erase(it);
    }
    if (connection.eos_set && connection.next_write_seq >= connection.eos_seq)
        finish_locked(connection);
}

void Server::finish_locked(Connection& connection) {
    if (connection.finished) return;
    flush_locked(connection);
    connection.finished = true;
    connection.transport->close();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        --open_connections_;
    }
    connections_changed_.notify_all();
}

void Server::record_stages(RunItem& item, std::uint64_t session_id,
                           const Response& response, std::size_t lane) {
    // total = frame completion -> reply framed (or sent, when a runner
    // flushes a foreign connection), plus the recv time that preceded the
    // frame. Every stage is a disjoint sub-interval, so stage_sum_us() <=
    // total_us; the remainder is handoff time, visible at the wait sites.
    const Request& request = item.request;
    StageStamps& stamps = item.stamps;
    stamps.total_us = (trace_clock_seconds() - item.frame_t) * 1e6 +
                      stamps.recv_wait_us + stamps.recv_read_us;
    // Traced requests leave their ids as sketch exemplars, so a scraped
    // tail latency names the spans that produced it.
    const std::uint64_t trace = request.trace_id;
    const std::uint64_t span = request.span_id;
    stage_recv_wait_us_.record(stamps.recv_wait_us, trace, span, lane);
    stage_recv_read_us_.record(stamps.recv_read_us, trace, span, lane);
    stage_parse_us_.record(stamps.parse_us, trace, span, lane);
    stage_queue_us_.record(stamps.queue_us, trace, span, lane);
    stage_score_us_.record(stamps.score_us, trace, span, lane);
    stage_reply_us_.record(stamps.reply_us, trace, span, lane);
    stage_total_us_.record(stamps.total_us, trace, span, lane);
    const bool ok = response.type != ResponseType::Error;
    if (session_id != 0) {
        FlightRecord record;
        record.set_verb(verb_of(request.type));
        record.set_outcome(ok ? "ok" : "err");
        record.events = static_cast<std::uint32_t>(request.events.size());
        record.scores = static_cast<std::uint32_t>(response.scores.size());
        record.recv_wait_us = static_cast<float>(stamps.recv_wait_us);
        record.recv_read_us = static_cast<float>(stamps.recv_read_us);
        record.parse_us = static_cast<float>(stamps.parse_us);
        record.queue_us = static_cast<float>(stamps.queue_us);
        record.score_us = static_cast<float>(stamps.score_us);
        record.reply_us = static_cast<float>(stamps.reply_us);
        record.total_us = static_cast<float>(stamps.total_us);
        sessions_.record_flight(session_id, record);
    }
    if (request.type != RequestType::Push) return;
    // The sampled per-event stream: deterministic 1-in-N by PUSH arrival
    // order, so two runs of the same load sample the same fraction.
    const std::uint64_t seq = push_seq_.fetch_add(1, std::memory_order_relaxed);
    if (config_.profile_sample_every == 0 ||
        seq % config_.profile_sample_every != 0)
        return;
    const std::shared_ptr<TraceSink> sink = global_trace_sink();
    if (!sink || !sink->enabled()) return;
    JsonWriter w;
    w.begin_object();
    w.key("type").value("event_stage");
    w.key("seq").value(seq);
    w.key("verb").value(verb_of(request.type));
    w.key("session").value(session_id);
    w.key("events").value(static_cast<std::uint64_t>(request.events.size()));
    w.key("scores").value(static_cast<std::uint64_t>(response.scores.size()));
    w.key("outcome").value(ok ? "ok" : "err");
    w.key("recv_wait_us").value(stamps.recv_wait_us);
    w.key("recv_read_us").value(stamps.recv_read_us);
    w.key("parse_us").value(stamps.parse_us);
    w.key("queue_us").value(stamps.queue_us);
    w.key("score_us").value(stamps.score_us);
    w.key("reply_us").value(stamps.reply_us);
    w.key("total_us").value(stamps.total_us);
    w.end_object();
    sink->write_line(w.str());
}

}  // namespace adiv::serve
