// Transport semantics over a socketpair (make_loopback_pair) and TCP: EOF
// vs failure, half-close, buffered bytes surviving a close, read and write
// timeouts, frame helpers over a byte stream.
#include "serve/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace adiv::serve {
namespace {

std::string read_exactly(Transport& transport, std::size_t count) {
    std::string out;
    char chunk[64];
    while (out.size() < count) {
        const std::size_t n = transport.read_some(
            chunk, std::min(sizeof(chunk), count - out.size()));
        if (n == 0) break;
        out.append(chunk, n);
    }
    return out;
}

TEST(Loopback, BytesFlowBothWays) {
    auto [a, b] = make_loopback_pair();
    a->write_all("ping", 4);
    EXPECT_EQ(read_exactly(*b, 4), "ping");
    b->write_all("pong!", 5);
    EXPECT_EQ(read_exactly(*a, 5), "pong!");
}

TEST(Loopback, ReadSeesEndOfStreamAfterPeerCloses) {
    auto [a, b] = make_loopback_pair();
    a->close();
    char byte;
    EXPECT_EQ(b->read_some(&byte, 1), 0u);
}

TEST(Loopback, BufferedBytesRemainReadableAfterClose) {
    // A server's final response must reach a client even when the server
    // closes right after writing it.
    auto [a, b] = make_loopback_pair();
    a->write_all("last words", 10);
    a->close();
    EXPECT_EQ(read_exactly(*b, 10), "last words");
    char byte;
    EXPECT_EQ(b->read_some(&byte, 1), 0u);
}

TEST(Loopback, ShutdownInputOnlyStopsOurReads) {
    auto [a, b] = make_loopback_pair();
    a->shutdown_input();
    char byte;
    EXPECT_EQ(a->read_some(&byte, 1), 0u);  // our reads: EOF
    a->write_all("still flows", 11);        // our writes: fine
    EXPECT_EQ(read_exactly(*b, 11), "still flows");
}

TEST(Loopback, ReadBlocksUntilDataArrives) {
    auto [a, b] = make_loopback_pair();
    std::thread writer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        a->write_all("x", 1);
    });
    char byte = 0;
    EXPECT_EQ(b->read_some(&byte, 1), 1u);  // blocks until the writer runs
    EXPECT_EQ(byte, 'x');
    writer.join();
}

TEST(Loopback, ReadTimeoutTurnsASilentPeerIntoDataError) {
    auto [a, b] = make_loopback_pair();
    b->set_timeout(50);
    char byte = 0;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW((void)b->read_some(&byte, 1), DataError);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

    // 0 restores blocking: a write that comes later than the old timeout
    // is still read.
    b->set_timeout(0);
    std::thread writer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        a->write_all("x", 1);
    });
    EXPECT_EQ(b->read_some(&byte, 1), 1u);
    EXPECT_EQ(byte, 'x');
    writer.join();
}

TEST(Loopback, WriteTimeoutThrowsOnceThePeerStopsReading) {
    // b never reads: the socket buffer fills, and the blocked send gives up
    // after the timeout instead of waiting forever.
    auto [a, b] = make_loopback_pair();
    a->set_timeout(50);
    const std::vector<char> bytes(16 * 1024 * 1024, 'z');
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(a->write_all(bytes.data(), bytes.size()), DataError);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(Loopback, WriteAfterPeerClosedIsDiscarded) {
    auto [a, b] = make_loopback_pair();
    b->close();
    EXPECT_NO_THROW(a->write_all("into the void", 13));
    char byte;
    EXPECT_EQ(a->read_some(&byte, 1), 0u);
}

TEST(FrameHelpers, RoundTripOverLoopback) {
    auto [a, b] = make_loopback_pair();
    write_frame(*a, "OPEN default");
    write_frame(*a, "STATS");
    FrameDecoder decoder;
    EXPECT_EQ(read_frame(*b, decoder), "OPEN default");
    EXPECT_EQ(read_frame(*b, decoder), "STATS");
}

TEST(FrameHelpers, CleanEofReturnsNullopt) {
    auto [a, b] = make_loopback_pair();
    write_frame(*a, "CLOSE");
    a->close();
    FrameDecoder decoder;
    EXPECT_EQ(read_frame(*b, decoder), "CLOSE");
    EXPECT_EQ(read_frame(*b, decoder), std::nullopt);
}

TEST(FrameHelpers, MidFrameEofThrows) {
    auto [a, b] = make_loopback_pair();
    a->write_all("100 partial", 11);  // announces 100 bytes, delivers 7
    a->close();
    FrameDecoder decoder;
    EXPECT_THROW((void)read_frame(*b, decoder), DataError);
}

TEST(Tcp, EphemeralPortRoundTrip) {
    TcpListener listener(0);
    ASSERT_NE(listener.port(), 0u);
    std::unique_ptr<Transport> client;
    std::thread connector(
        [&] { client = tcp_connect("127.0.0.1", listener.port()); });
    std::unique_ptr<Transport> served = listener.accept(2000);
    connector.join();
    ASSERT_NE(served, nullptr);
    ASSERT_NE(client, nullptr);

    client->write_all("hello over tcp", 14);
    EXPECT_EQ(read_exactly(*served, 14), "hello over tcp");
    write_frame(*served, "OPENED 1 stide 6 8");
    FrameDecoder decoder;
    EXPECT_EQ(read_frame(*client, decoder), "OPENED 1 stide 6 8");

    served->close();
    char byte;
    EXPECT_EQ(client->read_some(&byte, 1), 0u);
}

TEST(Tcp, AcceptTimesOutWithoutAConnection) {
    TcpListener listener(0);
    EXPECT_EQ(listener.accept(50), nullptr);
}

TEST(Tcp, AcceptReturnsNullAfterClose) {
    TcpListener listener(0);
    listener.close();
    EXPECT_EQ(listener.accept(50), nullptr);
}

TEST(Tcp, ConnectToClosedPortThrows) {
    std::uint16_t dead_port;
    {
        TcpListener listener(0);
        dead_port = listener.port();
    }  // closed: nothing listens here now
    EXPECT_THROW((void)tcp_connect("127.0.0.1", dead_port), DataError);
}

}  // namespace
}  // namespace adiv::serve
