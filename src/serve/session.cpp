#include "serve/session.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace adiv::serve {

// ---------------------------------------------------------------------------
// ModelCatalog
// ---------------------------------------------------------------------------

void ModelCatalog::add(const std::string& name,
                       std::shared_ptr<const SequenceDetector> model) {
    require(model != nullptr, "cannot register a null model");
    require(!name.empty() && name.find_first_of(" \t\n\r") == std::string::npos,
            "model name must be a single non-empty token");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (models_.empty()) models_["default"] = model;
    models_[name] = std::move(model);
}

std::shared_ptr<const SequenceDetector> ModelCatalog::resolve(
    const std::string& target) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(target);
    if (it == models_.end()) throw InvalidArgument("unknown model '" + target + "'");
    return it->second;
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

namespace {

/// Clears every field while keeping buffer capacity — the contract that
/// makes handle_into() safe over a reused Response.
void reset_response(Response& response) {
    response.type = ResponseType::Error;
    response.session_id = 0;
    response.detector.clear();
    response.window = 0;
    response.alphabet = 0;
    response.scores.clear();
    response.counts = SessionCounts{};
    response.active_sessions = 0;
    response.body.clear();
    response.message.clear();
}

}  // namespace

SessionManager::SessionManager(ModelCatalog& catalog, SessionConfig config,
                               MetricsRegistry& metrics)
    : catalog_(&catalog),
      config_(config),
      metrics_(&metrics),
      // Spelled WaitSite(...) so the metric-name lint checks the name.
      table_site_(WaitSite("serve.shard.table", metrics)),
      sessions_opened_(metrics.counter("serve.sessions_opened")),
      sessions_closed_(metrics.counter("serve.sessions_closed")),
      sessions_active_(metrics.gauge("serve.sessions_active")),
      events_pushed_(metrics.counter("serve.events_pushed")),
      alarms_emitted_(metrics.counter("serve.alarms_emitted")),
      ensembles_opened_(metrics.counter("fusion.sessions_opened")),
      push_latency_us_(metrics.sketch("serve.push_latency_us")) {
    const std::size_t shards = std::max<std::size_t>(config.shards, 1);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>(table_site_));
}

std::size_t SessionManager::shard_of(std::uint64_t session_id) const noexcept {
    // splitmix64 finalizer: sequential session ids must spread across
    // shards, not stripe predictably.
    std::uint64_t x = session_id + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % shards_.size());
}

Response SessionManager::open(const std::string& target,
                              std::shared_ptr<FlightRecorder>* flight) {
    const std::uint64_t session_id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.type = ResponseType::Opened;
    response.session_id = session_id;
    std::shared_ptr<Session> session;
    if (fusion::is_ensemble_spec(target)) {
        const fusion::EnsembleSpec spec = fusion::parse_ensemble_spec(target);
        auto ensemble = fusion::make_ensemble_scorer(
            spec,
            [this](const std::string& name) { return catalog_->resolve(name); },
            config_.scorer_buffer, *metrics_);
        response.detector = fusion::canonical(spec);
        response.window = ensemble->window_length();
        response.alphabet = ensemble->alphabet_size();
        session = std::make_shared<Session>(std::move(ensemble),
                                            config_.flight_capacity);
        session->threshold_gauges.reserve(session->ensemble->member_count());
        for (std::size_t i = 0; i < session->ensemble->member_count(); ++i)
            session->threshold_gauges.push_back(&metrics_->gauge(
                "fusion.threshold.m" + std::to_string(i)));
        ensembles_opened_.add(1);
    } else {
        std::shared_ptr<const SequenceDetector> model =
            catalog_->resolve(target);
        session = std::make_shared<Session>(std::move(model),
                                            config_.scorer_buffer,
                                            config_.flight_capacity, *metrics_);
        response.detector = session->model->name();
        response.window = session->model->window_length();
        response.alphabet = session->model->alphabet_size();
    }
    if (flight)
        *flight = std::shared_ptr<FlightRecorder>(session, &session->flight);
    Shard& shard = *shards_[shard_of(session_id)];
    {
        const std::lock_guard<ProfiledMutex> lock(shard.mutex);
        const auto [it, inserted] =
            shard.sessions.emplace(session_id, std::move(session));
        require(inserted, "session id already open");
    }
    sessions_active_.set(static_cast<double>(
        live_sessions_.fetch_add(1, std::memory_order_relaxed) + 1));
    sessions_opened_.add(1);
    return response;
}

void SessionManager::handle_into(std::uint64_t session_id,
                                 const Request& request, Response& out) {
    reset_response(out);
    const std::shared_ptr<Session> session = find(session_id);
    if (!session) {
        out.message = "no open session";
        return;
    }
    switch (request.type) {
        case RequestType::Open:
            out.message = "session already open";
            return;
        case RequestType::Push: {
            const Stopwatch watch;
            const std::size_t alphabet = session->alphabet_size();
            for (const Symbol event : request.events)
                if (event >= alphabet) {
                    out.message = "event " + std::to_string(event) +
                                  " outside the model alphabet (" +
                                  std::to_string(alphabet) + ")";
                    return;
                }
            out.type = ResponseType::Scores;
            {
                // Traced requests nest a scorer span under the reader's
                // serve.shard_handle (the context the server installed);
                // the active() check keeps untraced pushes span-free.
                std::optional<TraceSpan> score_span;
                if (current_trace_context().active())
                    score_span.emplace("serve.score_push");
                session->push_batch(request.events.data(),
                                    request.events.size(), out.scores);
            }
            if (session->ensemble)
                for (std::size_t i = 0; i < session->threshold_gauges.size();
                     ++i)
                    session->threshold_gauges[i]->set(
                        session->ensemble->member_threshold(i));
            const std::uint64_t alarms = session->alarms();
            // Session-state invariant: alarm counters only move forward, so
            // the delta reported to the registry can never underflow.
            ADIV_ASSERT(alarms >= session->alarms_reported);
            alarms_emitted_.add(alarms - session->alarms_reported);
            session->alarms_reported = alarms;
            events_pushed_.add(request.events.size());
            push_latency_us_.record(watch.seconds() * 1e6);
            return;
        }
        case RequestType::Stats:
            out.type = ResponseType::Stats;
            out.counts = counts_of(*session);
            out.active_sessions = active_sessions();
            return;
        case RequestType::Drain:
            // The connection's reader handles its requests one at a time,
            // in arrival order, so everything this session sent before this
            // request has been handled: reaching this point IS the barrier.
            out.type = ResponseType::Drained;
            out.counts = counts_of(*session);
            return;
        case RequestType::Dump:
            out.type = ResponseType::Dumped;
            out.body = render_flight_records(session->flight.snapshot());
            return;
        case RequestType::Close: {
            out.type = ResponseType::Closed;
            out.counts = counts_of(*session);
            Shard& shard = *shards_[shard_of(session_id)];
            const std::lock_guard<ProfiledMutex> lock(shard.mutex);
            close_locked_erase(shard, session_id);
            return;
        }
    }
    out.message = "unknown request type";
}

void SessionManager::disconnect(std::uint64_t session_id) {
    Shard& shard = *shards_[shard_of(session_id)];
    const std::lock_guard<ProfiledMutex> lock(shard.mutex);
    close_locked_erase(shard, session_id);
}

std::string SessionManager::dump_all() const {
    std::vector<std::pair<std::uint64_t, std::shared_ptr<Session>>> live;
    for (const auto& shard : shards_) {
        const std::lock_guard<ProfiledMutex> lock(shard->mutex);
        live.insert(live.end(), shard->sessions.begin(), shard->sessions.end());
    }
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string out = "flight recorder dump: " + std::to_string(live.size()) +
                      " session(s)\n";
    for (const auto& [id, session] : live) {
        out += "session " + std::to_string(id) + "\n";
        out += render_flight_records(session->flight.snapshot());
    }
    return out;
}

std::shared_ptr<SessionManager::Session> SessionManager::find(
    std::uint64_t session_id) const {
    const Shard& shard = *shards_[shard_of(session_id)];
    const std::lock_guard<ProfiledMutex> lock(shard.mutex);
    const auto it = shard.sessions.find(session_id);
    return it == shard.sessions.end() ? nullptr : it->second;
}

SessionCounts SessionManager::counts_of(const Session& session) {
    SessionCounts counts;
    if (session.ensemble) {
        counts.events = session.ensemble->events_consumed();
        counts.windows = session.ensemble->windows_scored();
        counts.alarms = session.ensemble->alarms();
    } else {
        counts.events = session.scorer->events_consumed();
        counts.windows = session.scorer->windows_scored();
        counts.alarms = session.scorer->alarms();
    }
    return counts;
}

void SessionManager::close_locked_erase(Shard& shard, std::uint64_t session_id) {
    if (shard.sessions.erase(session_id) > 0) {
        sessions_closed_.add(1);
        sessions_active_.set(static_cast<double>(
            live_sessions_.fetch_sub(1, std::memory_order_relaxed) - 1));
    }
}

}  // namespace adiv::serve
