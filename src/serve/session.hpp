// Session state for the detection server.
//
// ModelCatalog owns the trained detectors, registered at start-up
// (adiv_serve --model loads them via io/model_io) and shared read-only
// across every session — the concurrency contract in detect/detector.hpp
// makes concurrent score() calls on one trained instance safe, so N
// sessions over one model cost one model.
//
// SessionManager turns protocol requests into responses over per-session
// OnlineScorer state. The session table is partitioned into K independent
// shards — a session lives in shard_of(id), a mixed hash of its id — each
// with its own lock, so opens and closes on different shards never contend
// and the table stops being a serialization point. The manager performs no
// locking around a session's scorer: the server guarantees that at most one
// thread handles a given session — the reader of the connection that opened
// it, one request at a time — and the manager's shard locks only guard the
// table entries.
//
// Metrics (in the given registry; the process-global one by default):
//   serve.sessions_opened    counter
//   serve.sessions_closed    counter
//   serve.sessions_active    gauge
//   serve.events_pushed      counter, one per event in a PUSH
//   serve.alarms_emitted     counter, maximal responses delivered (fused
//                            responses for ensemble sessions)
//   serve.push_latency_us    sketch over per-PUSH handling time
//   fusion.sessions_opened   counter, OPENs that bound an ensemble spec
//   fusion.threshold.m<i>    gauge, member i's calibrated vote threshold
//                            (last writer wins across ensemble sessions)
//   serve.shard.table.*      the shard locks' wait site: .acquires,
//                            .contended, .wait_us (obs/profile.hpp; moves
//                            only while profiling is on)
// Ensemble sessions additionally move the fusion.* scorer counters
// (fused_windows / fused_alarms / member_alarms / suppressed_alarms) —
// see fusion/ensemble_scorer.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "detect/detector.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "serve/protocol.hpp"

namespace adiv::serve {

/// Named, trained, immutable detectors shared across sessions.
class ModelCatalog {
public:
    /// Registers a model under a name; the detector must be trained.
    /// The first registered model also becomes "default".
    void add(const std::string& name,
             std::shared_ptr<const SequenceDetector> model);

    /// Resolves an OPEN target: a registered name. Throws InvalidArgument
    /// for unknown targets.
    std::shared_ptr<const SequenceDetector> resolve(const std::string& target) const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const SequenceDetector>>
        models_;  // guarded by mutex_
};

struct SessionConfig {
    /// OnlineScorer buffer capacity (per member for ensemble sessions);
    /// 0 = the scorer default (4 * DW).
    std::size_t scorer_buffer = 0;
    /// Flight-recorder slots per session (the DUMP verb's window).
    std::size_t flight_capacity = 64;
    /// Session-table shards; clamped to at least 1.
    std::size_t shards = 1;
};

/// Per-session OnlineScorer state over catalog models; request dispatch.
class SessionManager {
public:
    explicit SessionManager(ModelCatalog& catalog, SessionConfig config = {},
                            MetricsRegistry& metrics = global_metrics());

    /// Creates a session over the resolved target; the response carries
    /// its id (ids are unique, not dense: a failed open uses one up).
    /// When `flight` is given it receives the session's flight ring, which
    /// the caller then appends to as the ring's one writer (the server's
    /// reader for the connection that opened the session). Throws
    /// InvalidArgument for unknown targets.
    [[nodiscard]] Response open(
        const std::string& target,
        std::shared_ptr<FlightRecorder>* flight = nullptr);

    [[nodiscard]] std::size_t shard_count() const noexcept {
        return shards_.size();
    }

    /// Handles a PUSH / STATS / DRAIN / DUMP / CLOSE for an existing session,
    /// writing into a caller-owned Response whose buffers (scores, body,
    /// message) keep their capacity across calls — the
    /// connection reader's allocation-free steady state. Answers ERR (never
    /// throws) for protocol-level problems: unknown session, out-of-alphabet
    /// events. A rejected PUSH leaves the session state untouched (events
    /// are validated before any is scored).
    void handle_into(std::uint64_t session_id, const Request& request,
                     Response& out);

    /// Abrupt session end (connection dropped without CLOSE).
    void disconnect(std::uint64_t session_id);

    [[nodiscard]] std::size_t active_sessions() const noexcept {
        return live_sessions_.load(std::memory_order_relaxed);
    }

    /// Every live session's flight ring rendered as text, one
    /// "session <id>" header per session in id order — the
    /// --dump-on-signal output.
    [[nodiscard]] std::string dump_all() const;

private:
    /// Exactly one of {scorer, ensemble} is engaged: an OPEN target that is
    /// an ensemble spec (fusion::is_ensemble_spec) binds N catalog models
    /// fused by a rule, any other target binds one model. Either way the
    /// session answers PUSH with one score stream and one alarm count, so
    /// the server and the wire protocol never branch on the kind.
    struct Session {
        std::shared_ptr<const SequenceDetector> model;  // null for ensembles
        std::optional<OnlineScorer> scorer;
        std::unique_ptr<fusion::EnsembleScorer> ensemble;
        // Calibrated per-member vote thresholds, exported after every PUSH;
        // resolved once at open so the push path composes no metric names.
        std::vector<Gauge*> threshold_gauges;
        FlightRecorder flight;
        std::uint64_t alarms_reported = 0;

        Session(std::shared_ptr<const SequenceDetector> detector,
                std::size_t buffer, std::size_t flight_capacity,
                MetricsRegistry& metrics)
            : model(std::move(detector)),
              scorer(std::in_place, *model, buffer, metrics),
              flight(flight_capacity) {}

        Session(std::unique_ptr<fusion::EnsembleScorer> fused,
                std::size_t flight_capacity)
            : ensemble(std::move(fused)), flight(flight_capacity) {}

        [[nodiscard]] std::size_t alphabet_size() const {
            return ensemble ? ensemble->alphabet_size()
                            : model->alphabet_size();
        }
        std::size_t push_batch(const Symbol* events, std::size_t count,
                               std::vector<double>& out) {
            return ensemble ? ensemble->push_batch(events, count, out)
                            : scorer->push_batch(events, count, out);
        }
        [[nodiscard]] std::uint64_t alarms() const {
            return ensemble ? ensemble->alarms() : scorer->alarms();
        }
    };

    struct Shard {
        explicit Shard(WaitSite& site) : mutex(site) {}
        // One lock per shard; every shard reports to the manager's single
        // serve.shard.table wait site, so the profile shows the table's
        // aggregate contention regardless of the shard count.
        mutable ProfiledMutex mutex;
        // The table structure only: a Session's own state (scorer, ensemble
        // members, the vote rule's threshold histograms, flight ring) is
        // confined to one connection's reader — after the locked lookup,
        // only that reader touches it, which is what keeps the score path
        // lock-free.
        std::map<std::uint64_t, std::shared_ptr<Session>>
            sessions;  // guarded by mutex
    };

    /// The shard a session id lives in: a mixed hash of the id (sequential
    /// ids must spread, not stripe) modulo the shard count.
    [[nodiscard]] std::size_t shard_of(std::uint64_t session_id) const noexcept;
    [[nodiscard]] std::shared_ptr<Session> find(std::uint64_t session_id) const;
    [[nodiscard]] static SessionCounts counts_of(const Session& session);
    void close_locked_erase(Shard& shard, std::uint64_t session_id);

    ModelCatalog* catalog_;
    SessionConfig config_;
    MetricsRegistry* metrics_;
    WaitSite table_site_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::size_t> live_sessions_{0};
    Counter& sessions_opened_;
    Counter& sessions_closed_;
    Gauge& sessions_active_;
    Counter& events_pushed_;
    Counter& alarms_emitted_;
    Counter& ensembles_opened_;
    Sketch& push_latency_us_;
};

}  // namespace adiv::serve
