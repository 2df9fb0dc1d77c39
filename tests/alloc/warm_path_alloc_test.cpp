// Allocation budget of the warm scoring path.
//
// This file replaces the global operator new with one that counts
// allocations twice: per thread, and process-wide. That is why it is its own
// test executable: the replacement must not reach adiv_tests.
//
// Each case pushes a held-out stream three times through a scorer, in
// frames, and counts the allocations of every frame of the third pass. The
// first two passes grow every reused buffer to its working size, so the
// third pass shows what each PUSH pays at steady state. The budget: a small
// constant per batch that does not grow with the batch length (64- vs
// 512-event frames). A per-event allocation anywhere below the scorer (a
// contract check formatting its message, a cache storing a window) multiplies
// by the frame length and fails it. Windows never seen before are held to
// the same budget: after one warm pass, the first pass over a uniform stream
// (nearly every window novel: a Lane & Brodley database scan, a neural-net
// forward pass) is counted too.
//
// The served case sends pre-encoded PUSH frames through a Server over a
// socketpair (make_loopback_pair, the socket transport the daemon's TCP
// connections use) and holds its reader to the session's budget: the
// server's own work for a warm PUSH (decode, parse, reply framing, the send,
// and with profiling on the stage sketches and the flight ring) adds no
// allocation. It counts what every other thread allocated between the
// client's write and the reply's arrival: the process-wide delta minus the
// test thread's own. The count is exact, because the reader's allocations
// for a request precede its send of the reply, and the client's read of
// the reply returns only after that send. ci_check.sh's TSan pass runs this
// file too.
//
// The HMM detector is left out. It is not window-local, so OnlineScorer
// scores it through the per-event fallback, which builds one stream per
// event; only a scoring path that writes into caller-owned spans (a
// score_into) removes that.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "fusion/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "support/corpus_fixture.hpp"
#include "util/rng.hpp"

namespace {
thread_local std::size_t g_allocations = 0;
std::atomic<std::size_t> g_process_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    ++g_allocations;
    g_process_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
    ++g_allocations;
    g_process_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace adiv {
namespace {

constexpr std::size_t kWindow = 6;
constexpr std::size_t kStreamLength = 4096;  // 64 frames of 64, 8 of 512
constexpr std::size_t kFrames[] = {64, 512};

/// What one window-local OnlineScorer::push_batch allocates at steady state:
/// the batch's slice copied into an EventStream, and the response vector
/// score() returns. A score_into writing into caller-owned spans would
/// remove both; lower the budget then.
constexpr std::size_t kScorerAllocsPerBatch = 2;

/// The serve_fused target: the paper's four detectors, vote-fused.
const std::string kVoteSpec =
    "stide/6+markov/6+lane-brodley/6+neural-net/6;fuse=vote";

/// A held-out stream from the corpus process with 1% uniform events, so
/// every pass sees novel windows as served traffic does.
const Sequence& heldout() {
    static const Sequence stream = [] {
        Sequence events = test::small_corpus().generate_heldout(kStreamLength, 71).events();
        Rng rng(72);
        const std::size_t alphabet = test::small_corpus().training().alphabet_size();
        for (Symbol& s : events)
            if (rng.chance(0.01)) s = static_cast<Symbol>(rng.below(alphabet));
        return events;
    }();
    return stream;
}

std::shared_ptr<const SequenceDetector> trained(DetectorKind kind) {
    std::shared_ptr<SequenceDetector> detector = make_detector(kind, kWindow);
    detector->train(test::small_corpus().training());
    return detector;
}

/// Trained detectors, built once: every registry kind but the HMM.
const std::vector<std::pair<DetectorKind, std::shared_ptr<const SequenceDetector>>>&
window_local_detectors() {
    static const auto detectors = [] {
        std::vector<std::pair<DetectorKind, std::shared_ptr<const SequenceDetector>>> out;
        for (const DetectorKind kind : all_detectors())
            if (kind != DetectorKind::Hmm) out.emplace_back(kind, trained(kind));
        return out;
    }();
    return detectors;
}

std::shared_ptr<const SequenceDetector> detector_of(DetectorKind kind) {
    for (const auto& [k, detector] : window_local_detectors())
        if (k == kind) return detector;
    return nullptr;
}

/// Allocations this thread has made.
std::size_t own_allocations() { return g_allocations; }

/// Allocations every other thread has made (a Server's readers).
std::size_t other_allocations() {
    return g_process_allocations.load(std::memory_order_relaxed) - g_allocations;
}

/// Pushes heldout() three times in frames of `frame` events and returns the
/// most allocations any frame of the third, warm pass made, as `counted`
/// sees them.
template <typename Push>
std::size_t warm_allocations_per_batch(std::size_t frame, Push&& push,
                                       std::size_t (*counted)() = own_allocations) {
    const Sequence& stream = heldout();
    std::size_t worst = 0;
    for (int pass = 0; pass < 3; ++pass)
        for (std::size_t at = 0; at < stream.size(); at += frame) {
            const std::size_t count = std::min(frame, stream.size() - at);
            const std::size_t before = counted();
            push(stream.data() + at, count);
            if (pass == 2) worst = std::max(worst, counted() - before);
        }
    return worst;
}

/// Writes one framed request and returns the reply.
serve::Response exchange(serve::Transport& client, serve::FrameDecoder& decoder,
                         const std::string& frame) {
    client.write_all(frame.data(), frame.size());
    const std::optional<std::string> reply = serve::read_frame(client, decoder);
    return reply ? serve::parse_response(*reply) : serve::Response{};
}

/// Restores the process-wide profiling switch when it leaves scope.
struct ProfilingRestore {
    bool was = profiling_enabled();
    ~ProfilingRestore() { set_profiling_enabled(was); }
};

TEST(WarmPathAllocations, CounterSeesEveryAllocation) {
    const std::size_t before = g_allocations;
    auto boxed = std::make_unique<std::vector<double>>(100);
    EXPECT_EQ(g_allocations - before, 2u);
    boxed.reset();
    EXPECT_EQ(g_allocations - before, 2u);
}

TEST(WarmPathAllocations, WindowLocalScorerPaysAConstantPerBatch) {
    ASSERT_EQ(window_local_detectors().size(), all_detectors().size() - 1);
    for (const auto& [kind, detector] : window_local_detectors()) {
        SCOPED_TRACE(to_string(kind));
        ASSERT_TRUE(detector->window_local());
        std::vector<std::size_t> worst;
        for (const std::size_t frame : kFrames) {
            MetricsRegistry metrics;
            OnlineScorer scorer(*detector, 0, metrics);
            std::vector<double> out;
            worst.push_back(warm_allocations_per_batch(
                frame, [&](const Symbol* events, std::size_t count) {
                    out.clear();
                    scorer.push_batch(events, count, out);
                }));
        }
        EXPECT_LE(worst[0], kScorerAllocsPerBatch) << "64-event frames";
        EXPECT_LE(worst[1], kScorerAllocsPerBatch) << "512-event frames";
        EXPECT_LE(worst[1], worst[0]) << "allocations grow with batch length";
    }
}

TEST(WarmPathAllocations, NovelWindowsAllocateNothing) {
    const std::size_t alphabet = test::small_corpus().training().alphabet_size();
    Sequence uniform(kStreamLength);
    Rng rng(73);
    for (Symbol& s : uniform) s = static_cast<Symbol>(rng.below(alphabet));
    for (const DetectorKind kind : {DetectorKind::LaneBrodley, DetectorKind::NeuralNet}) {
        SCOPED_TRACE(to_string(kind));
        for (const std::size_t frame : kFrames) {
            MetricsRegistry metrics;
            OnlineScorer scorer(*detector_of(kind), 0, metrics);
            std::vector<double> out;
            const auto push = [&](const Sequence& stream, std::size_t at) {
                out.clear();
                return scorer.push_batch(stream.data() + at,
                                         std::min(frame, stream.size() - at), out);
            };
            for (std::size_t at = 0; at < heldout().size(); at += frame)
                push(heldout(), at);
            std::size_t worst = 0;
            for (std::size_t at = 0; at < uniform.size(); at += frame) {
                const std::size_t before = own_allocations();
                push(uniform, at);
                worst = std::max(worst, own_allocations() - before);
            }
            EXPECT_LE(worst, kScorerAllocsPerBatch) << frame << "-event frames";
        }
    }
}

TEST(WarmPathAllocations, VoteEnsemblePaysAConstantPerBatch) {
    const fusion::EnsembleSpec spec = fusion::parse_ensemble_spec(kVoteSpec);
    const std::size_t budget = spec.members.size() * kScorerAllocsPerBatch;
    std::vector<std::size_t> worst;
    for (const std::size_t frame : kFrames) {
        MetricsRegistry metrics;
        const auto ensemble = fusion::make_ensemble_scorer(
            spec,
            [](const std::string& name) {
                return detector_of(detector_kind_from_string(
                    name.substr(0, name.find('/'))));
            },
            0, metrics);
        std::vector<double> out;
        worst.push_back(warm_allocations_per_batch(
            frame, [&](const Symbol* events, std::size_t count) {
                out.clear();
                ensemble->push_batch(events, count, out);
            }));
    }
    EXPECT_LE(worst[0], budget) << "64-event frames";
    EXPECT_LE(worst[1], budget) << "512-event frames";
    EXPECT_LE(worst[1], worst[0]) << "allocations grow with batch length";
}

TEST(WarmPathAllocations, SessionPushPaysAConstantPerBatch) {
    serve::ModelCatalog catalog;
    for (const DetectorKind kind : paper_detectors())
        catalog.add(to_string(kind) + "/6", detector_of(kind));
    struct Target {
        std::string name;
        std::size_t budget;
    };
    const Target targets[] = {{"neural-net/6", kScorerAllocsPerBatch},
                              {kVoteSpec, 4 * kScorerAllocsPerBatch}};
    for (const Target& target : targets) {
        SCOPED_TRACE(target.name);
        std::vector<std::size_t> worst;
        for (const std::size_t frame : kFrames) {
            MetricsRegistry metrics;
            serve::SessionManager sessions(catalog, {}, metrics);
            const serve::Response opened = sessions.open(target.name);
            ASSERT_EQ(opened.type, serve::ResponseType::Opened);
            serve::Request request;
            request.type = serve::RequestType::Push;
            serve::Response response;
            std::size_t rejected = 0;
            worst.push_back(warm_allocations_per_batch(
                frame, [&](const Symbol* events, std::size_t count) {
                    request.events.assign(events, events + count);
                    sessions.handle_into(opened.session_id, request, response);
                    if (response.type != serve::ResponseType::Scores) ++rejected;
                }));
            EXPECT_EQ(rejected, 0u) << response.message;
        }
        EXPECT_LE(worst[0], target.budget) << "64-event frames";
        EXPECT_LE(worst[1], target.budget) << "512-event frames";
        EXPECT_LE(worst[1], worst[0]) << "allocations grow with batch length";
    }
}

TEST(WarmPathAllocations, ServedPushPaysAConstantPerBatch) {
    struct Target {
        std::string name;
        std::size_t budget;
    };
    const Target targets[] = {{"stide/6", kScorerAllocsPerBatch},
                              {"neural-net/6", kScorerAllocsPerBatch},
                              {kVoteSpec, 4 * kScorerAllocsPerBatch}};
    const ProfilingRestore restore;
    for (const bool profile : {false, true}) {
        set_profiling_enabled(profile);
        MetricsRegistry metrics;
        serve::Server server({}, metrics);
        for (const DetectorKind kind : paper_detectors())
            server.add_model(to_string(kind) + "/6", detector_of(kind));
        for (const Target& target : targets) {
            SCOPED_TRACE(target.name + (profile ? ", profiling on" : ", profiling off"));
            std::vector<std::size_t> worst;
            for (const std::size_t frame : kFrames) {
                auto [client, server_end] = serve::make_loopback_pair();
                ASSERT_TRUE(server.attach(std::move(server_end)));
                serve::FrameDecoder decoder;
                serve::Request request;
                request.type = serve::RequestType::Open;
                request.target = target.name;
                ASSERT_EQ(exchange(*client, decoder,
                                   serve::encode_frame(serve::serialize(request)))
                              .type,
                          serve::ResponseType::Opened);
                // One pre-encoded PUSH per batch, replayed in every pass.
                std::vector<std::string> pushes;
                request.type = serve::RequestType::Push;
                for (std::size_t at = 0; at < heldout().size(); at += frame) {
                    const std::size_t count = std::min(frame, heldout().size() - at);
                    request.events.assign(heldout().begin() + at,
                                          heldout().begin() + at + count);
                    pushes.push_back(serve::encode_frame(serve::serialize(request)));
                }
                std::size_t next = 0;
                std::size_t rejected = 0;
                worst.push_back(warm_allocations_per_batch(
                    frame,
                    [&](const Symbol* /*events*/, std::size_t /*count*/) {
                        const std::string& push = pushes[next++ % pushes.size()];
                        if (exchange(*client, decoder, push).type !=
                            serve::ResponseType::Scores)
                            ++rejected;
                    },
                    other_allocations));
                EXPECT_EQ(rejected, 0u);
                // The reader's teardown must not land in the next count.
                client->close();
                server.wait_connections_closed();
            }
            EXPECT_LE(worst[0], target.budget) << "64-event frames";
            EXPECT_LE(worst[1], target.budget) << "512-event frames";
            EXPECT_LE(worst[1], worst[0]) << "allocations grow with batch length";
        }
    }
}

}  // namespace
}  // namespace adiv
