// The server over real TCP sockets, where flow control is the kernel's: a
// client that stops reading its replies must stall only its own connection.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "detect/registry.hpp"
#include "serve/client.hpp"
#include "support/corpus_fixture.hpp"

namespace adiv::serve {
namespace {

/// Serial reference replay of `events` through the model's OnlineScorer.
std::vector<double> replay(const SequenceDetector& model, SymbolView events) {
    MetricsRegistry quiet;
    OnlineScorer scorer(model, 0, quiet);
    std::vector<double> scores;
    for (const Symbol event : events)
        if (const auto response = scorer.push(event)) scores.push_back(*response);
    return scores;
}

std::string frame(RequestType type, SymbolView events = {},
                  std::string target = {}) {
    Request request;
    request.type = type;
    request.events.assign(events.begin(), events.end());
    request.target = std::move(target);
    return encode_frame(serialize(request));
}

/// A raw client socket whose receive buffer is shrunk to 4 KiB before it
/// connects, so replies it never reads back up after a few kilobytes.
int connect_small_receiver(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int receive_buffer = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &receive_buffer, sizeof receive_buffer);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// False once the socket refuses more bytes (it was shut down).
bool send_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

TEST(ServerTcp, AClientThatStopsReadingStallsOnlyItself) {
    // S pipelines 512-event PUSH frames and never reads a reply. Once its
    // replies fill the socket buffers, S's reader blocks in its send and
    // stops reading, and S's writer stops making progress. T, on the same
    // (only) shard, must still be answered.
    using namespace std::chrono_literals;
    MetricsRegistry metrics;
    Server server({.shards = 1}, metrics);
    auto model = make_detector(DetectorKind::Markov, 6);
    model->train(test::small_corpus().training());
    const std::shared_ptr<const SequenceDetector> markov = std::move(model);
    server.add_model("markov/6", markov);
    TcpListener listener(0);

    const int s = connect_small_receiver(listener.port());
    ASSERT_GE(s, 0);
    ASSERT_TRUE(server.attach(listener.accept(5000)));
    constexpr std::size_t kFrame = 512;
    const EventStream s_pool = test::small_corpus().generate_heldout(8 * kFrame, 81);
    std::vector<std::string> s_frames;
    for (std::size_t i = 0; i < 8; ++i)
        s_frames.push_back(
            frame(RequestType::Push, s_pool.view().subspan(i * kFrame, kFrame)));
    std::atomic<std::size_t> s_sent{0};
    std::thread s_writer([&] {
        if (!send_all(s, frame(RequestType::Open, {}, "markov/6"))) return;
        for (std::size_t i = 0;; ++i) {
            if (!send_all(s, s_frames[i % s_frames.size()])) return;
            s_sent.fetch_add(1);
        }
    });

    // Wait until S's writer has made no progress for half a second.
    bool stalled = false;
    std::size_t last = s_sent.load();
    auto last_progress = std::chrono::steady_clock::now();
    const auto give_up = last_progress + 60s;
    while (std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(50ms);
        const std::size_t now_sent = s_sent.load();
        if (now_sent != last) {
            last = now_sent;
            last_progress = std::chrono::steady_clock::now();
        } else if (now_sent > 0 &&
                   std::chrono::steady_clock::now() - last_progress >= 500ms) {
            stalled = true;
            break;
        }
    }

    // T: OPEN and one PUSH, each reply awaited at most 5 s.
    const EventStream t_events = test::small_corpus().generate_heldout(kFrame, 82);
    std::vector<double> t_scores;
    std::string t_error;
    const auto t_start = std::chrono::steady_clock::now();
    {
        std::unique_ptr<Transport> t_transport = tcp_connect("127.0.0.1", listener.port());
        EXPECT_TRUE(server.attach(listener.accept(5000)));
        t_transport->set_timeout(5000);
        Client t(std::move(t_transport));
        try {
            (void)t.open("markov/6");
            t_scores = t.push(t_events.view());
        } catch (const std::exception& e) {
            t_error = e.what();
        }
        t.disconnect();
    }
    const double t_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
            .count();

    // Closing S's socket ends S's writer and unblocks S's reader.
    ::shutdown(s, SHUT_RDWR);
    s_writer.join();
    ::close(s);
    server.shutdown();

    EXPECT_TRUE(stalled) << "S's writer kept making progress";
    EXPECT_EQ(t_error, "") << "T waited behind S's unread replies";
    EXPECT_LT(t_seconds, 5.0);
    EXPECT_EQ(t_scores, replay(*markov, t_events.view()));
}

}  // namespace
}  // namespace adiv::serve
