// The multi-session online detection server.
//
// Threading model (strand-per-shard, run by the reader that wakes it)
//
//   * One reader per connection (a dedicated thread): reads frames, parses
//     requests in place into a pooled slot, and routes them. OPEN, METRICS
//     before a session, and session-verbs-without-a-session are answered by
//     the reader itself (cold paths); everything else is appended to the
//     owning *shard's* run queue.
//   * One strand per session-table shard drains the shard's bounded MPSC
//     run queue in FIFO order. `scheduled` admits one runner per shard, and
//     the reader whose enqueue finds the shard idle becomes that runner: it
//     runs the strand itself, with no pool hop and no worker wakeup. A
//     session lives entirely in shard_of(id), so at most one thread ever
//     touches a session's scorer — the per-session ordering guarantee —
//     while different shards score in parallel.
//   * A reader runs at most bound_ (the ring capacity) items per strand
//     run. If the ring is still non-empty then, the strand stays scheduled
//     and is submitted to the pool, whose next free worker runs it until
//     the ring drains, and the reader returns to its own connection.
//     Without the bound, a connection that keeps the ring full would keep
//     another connection's reader scoring its frames forever. Pool workers
//     (`jobs`) run only handed-off strands; any worker may run any shard's,
//     and since a shard stays scheduled until its runner drains it, at most
//     one handoff per shard is ever queued.
//   * Responses leave each connection in request order regardless of which
//     thread produced them: every request takes a sequence number at the
//     reader, and a per-connection sequencer holds out-of-order replies
//     until their turn (only cross-shard pipelining ever holds a reply —
//     a single-session connection always frames its replies immediately).
//   * One send per read: released replies are framed into the connection's
//     output buffer, and one write_all flushes it (every byte, in sequence
//     order) when the reader has handled every frame of one read_some;
//     when a runner has appended a reply for a connection other than its
//     own (a pool runner flushes every reply); before a reader blocks on its
//     slot arena or on a full shard ring; once the buffer passes
//     kFlushBytes; and before finish_locked closes the transport.
//   * Backpressure is layered: each connection owns a bounded slot arena
//     (readers block when a client pushes faster than its shard scores,
//     which TCP flow control propagates to the client), and each shard's
//     run queue is bounded (a burst across connections blocks readers at
//     the shard).
//
// The per-event path is allocation-free at steady state: frame payloads are
// parsed as views into the decoder's buffer, requests land in reusable
// slots whose vectors keep their capacity, scoring writes into a per-shard
// scratch Response, and replies are framed into a per-connection output
// buffer that keeps its capacity across flushes. Server::run_shard is
// `// adiv-hot` — adiv_lint rejects allocation idioms inside it.
//
// Draining and shutdown: shutdown() stops the accept loop, closes every
// connection's *input* side only, lets each shard strand finish the
// requests that already arrived (responses still go out), then closes the
// transports and joins the readers. A client that sends DRAIN and waits for
// DRAINED before CLOSE therefore never loses a response.
//
// Server-level metrics (SessionManager adds the session ones):
//   serve.connections_accepted  counter
//   serve.frames_rejected       counter, malformed frames / requests
//   serve.responses_sent        counter, replies framed for the wire
//   serve.recv_calls            counter, read_some calls on readers
//   serve.send_calls            counter, write_all calls (one per flush)
//   serve.strand_handoffs       counter, strands a reader moved to the pool
//   serve.queue_depth           gauge, shard run-queue depth at enqueue
//   serve.shard.queue_depth     sketch over the same depths (profiling)
//
// Profiling (active only while profiling_enabled(); see obs/profile.hpp):
// each handled request is stamped with recv_wait/recv_read/parse/queue/
// score/reply stage durations (reply is the append to the output buffer,
// plus the send when a runner flushes a foreign connection; the end-of-read
// send falls after total, in no stage), recorded into serve.stage.* quantile
// sketches (obs/sketch.hpp; one single-writer lane per shard plus lane 0
// for replies the reader answers inline, merged at scrape time), appended
// to the session's flight ring, and — for every profile_sample_every'th
// PUSH, deterministically by sequence number — written to the global trace
// sink as a {"type":"event_stage",...} JSON line. Traced requests (a
// trace= context on the wire) additionally leave their trace/span ids as
// the sketch exemplars, and the shard strand brackets their handling in
// serve.shard_handle / serve.score_push spans parented under the client's
// wire span. Wait sites:
//   serve.shard.table          the SessionManager shard locks (aggregate)
//   serve.shard.slot_wait      reader blocked on a full slot arena
//   serve.shard.enqueue_block  reader blocked on a full shard run queue
//   serve.shard.wakeup         strand handoff -> first pool execution
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "util/thread_pool.hpp"

namespace adiv::serve {

struct ServerConfig {
    /// Pool workers, which run the strands readers hand off, and the
    /// default shard count; 0 = hardware concurrency.
    std::size_t jobs = 0;
    /// Bound on each connection's in-flight requests (its slot arena), on
    /// each shard's run queue, and on the items a reader runs per strand
    /// run; 0 = a large default (1024).
    std::size_t queue_capacity = 256;
    /// OnlineScorer buffer capacity per session; 0 = scorer default (4*DW).
    std::size_t scorer_buffer = 0;
    /// Permit OPEN targets that are model-file paths (loaded and cached).
    bool allow_model_paths = false;
    /// Flight-recorder slots per session (the DUMP verb's window).
    std::size_t flight_capacity = 64;
    /// Emit an event_stage trace line for every Nth PUSH (per server, by
    /// arrival order) while profiling is on; 0 disables the sampled stream.
    std::uint64_t profile_sample_every = 64;
    /// Session-table shards, each with its own strand; 0 = one per worker.
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

    /// Adopts one established connection (loopback end, accepted socket).
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
    /// One in-flight request, owned by a connection's slot arena. The slot's
    /// Request keeps its vector/string capacity across reuses, which is what
    /// makes the steady-state PUSH path allocation-free.
    struct RunItem {
        // Disconnect: the connection ended (EOF or fatal error) with a
        // session still open — the shard strand closes the session at the
        // right point in the stream and advances the sequencer silently.
        enum class Kind { Request, Disconnect };
        Kind kind = Kind::Request;
        Request request;
        std::uint64_t seq = 0;
        std::uint64_t session_id = 0;
        // Stage stamps, filled by StageTimer only while profiling is on.
        // frame_t > 0 marks a stamped item (trace_clock_seconds() is measured
        // from the first call in the process, so 0 cannot collide).
        StageStamps stamps;
        double frame_t = 0.0;       // clock at frame completion (total_us base)
        double enqueued_t = 0.0;    // clock at run-queue append (queue_us base)
    };

    /// A reply parked in the sequencer because an earlier sequence number
    /// has not been written yet. write=false marks a silent advance (a
    /// Disconnect's slot in the order, with no bytes on the wire).
    struct HeldReply {
        bool write = true;
        Response response;
    };

    struct Connection {
        std::unique_ptr<Transport> transport;
        std::thread reader;

        // Reader-owned (single-threaded; no lock): request sequencing and
        // the connection -> session binding.
        std::uint64_t next_seq = 0;
        bool has_session = false;
        std::uint64_t session_id = 0;
        std::size_t shard_index = 0;

        // Slot arena: fixed set of RunItems recycled between the reader
        // (claims, fills) and the shard strand (processes, releases). The
        // slots themselves are unguarded: a claimed slot belongs to exactly
        // one thread at a time (reader while filling, strand while
        // processing), with the free list as the handoff point.
        std::mutex slot_mutex;
        std::condition_variable slot_available;
        std::vector<RunItem> slots;
        std::vector<std::uint32_t> free_slots;  // adiv-guarded-by(slot_mutex)

        // Write side: the in-order reply sequencer and the reusable
        // serialization buffers.
        std::mutex write_mutex;
        std::uint64_t next_write_seq = 0;        // adiv-guarded-by(write_mutex)
        std::map<std::uint64_t, HeldReply> held; // adiv-guarded-by(write_mutex)
        std::uint64_t eos_seq = 0;               // adiv-guarded-by(write_mutex)
        bool eos_set = false;                    // adiv-guarded-by(write_mutex)
        bool finished = false;                   // adiv-guarded-by(write_mutex)
        std::string payload_scratch;             // adiv-guarded-by(write_mutex)
        // Framed replies awaiting the next flush; keeps its capacity.
        std::string output;                      // adiv-guarded-by(write_mutex)
    };

    /// One session-table shard's execution state: a bounded MPSC ring of
    /// (connection, slot) entries drained by the shard's strand.
    struct Shard {
        struct Entry {
            Connection* connection = nullptr;
            std::uint32_t slot = 0;
        };
        std::mutex mutex;
        std::condition_variable space;
        // Fixed capacity, circular.
        std::vector<Entry> ring;   // adiv-guarded-by(mutex)
        std::size_t head = 0;      // adiv-guarded-by(mutex)
        std::size_t count = 0;     // adiv-guarded-by(mutex)
        // True while a runner (a reader or a pool worker) owns the strand;
        // at most one per shard, which is the per-session serialization
        // guarantee.
        bool scheduled = false;    // adiv-guarded-by(mutex)
        // Scoring scratch: only the shard's strand touches it.
        Response response_scratch;
    };

    void reader_loop(Connection& connection);
    void handle_payload(Connection& connection, std::string_view payload,
                        StageStamps& recv);
    Response answer_inline(Connection& connection, const Request& request);
    void reader_eof(Connection& connection);
    void reader_fatal(Connection& connection, const std::string& message);
    std::uint32_t claim_slot(Connection& connection);
    void release_slot(Connection& connection, std::uint32_t slot);
    void enqueue_run(Connection& connection, std::uint32_t slot);
    bool run_shard(std::size_t shard_index, const Connection* owner,
                   std::size_t budget) noexcept;
    void hand_off(std::size_t shard_index);
    void process_item(Connection& connection, RunItem& item, Response& scratch,
                      bool send_now);
    void deliver(Connection& connection, std::uint64_t seq,
                 const Response* response, bool send_now = false);
    void deliver_eos(Connection& connection, std::uint64_t seq);
    void flush(Connection& connection);
    void flush_locked(Connection& connection);
    void write_locked(Connection& connection, const Response& response);
    void advance_locked(Connection& connection);
    void finish_locked(Connection& connection);
    void record_stages(RunItem& item, std::uint64_t session_id,
                       const Response& response, std::size_t lane);

    ServerConfig config_;
    std::size_t bound_;  // resolved queue_capacity (never 0)
    MetricsRegistry* metrics_;
    ModelCatalog catalog_;
    SessionManager sessions_;
    Counter& connections_accepted_;
    Counter& frames_rejected_;
    Counter& responses_sent_;
    Counter& recv_calls_;
    Counter& send_calls_;
    Counter& strand_handoffs_;
    Gauge& queue_depth_;
    // Stage sketches (profiling only; registered eagerly so an OpenMetrics
    // scrape shows them, zeroed, even before the first profiled event).
    // Lane 0 is the reader's inline-reply path; lane i+1 is shard i's
    // strand, so recording never crosses a cache line between shards.
    Sketch& stage_recv_wait_us_;
    Sketch& stage_recv_read_us_;
    Sketch& stage_parse_us_;
    Sketch& stage_queue_us_;
    Sketch& stage_score_us_;
    Sketch& stage_reply_us_;
    Sketch& stage_total_us_;
    Sketch& shard_queue_depth_;
    WaitSite& slot_wait_site_;
    WaitSite& enqueue_block_site_;
    WaitSite& wakeup_site_;
    std::atomic<std::uint64_t> push_seq_{0};
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex mutex_;
    std::condition_variable connections_changed_;
    std::vector<std::unique_ptr<Connection>> connections_;  // adiv-guarded-by(mutex_)
    std::size_t open_connections_ = 0;                      // adiv-guarded-by(mutex_)
    bool stopping_ = false;                                 // adiv-guarded-by(mutex_)

    // Declared last: destroyed first, so handed-off strand tasks run while
    // the connections and session manager they reference are still alive.
    ThreadPool pool_;
};

}  // namespace adiv::serve
