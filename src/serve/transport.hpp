// Byte transports for the detection server: a bidirectional byte stream
// with one implementation, a connected stream socket.
//
//   * make_loopback_pair() returns the two ends of an AF_UNIX socketpair;
//     what one end writes, the other reads. The in-process server,
//     allocation and concurrency tests, and the HTTP fuzz target, run over
//     these.
//   * TcpListener / tcp_connect — POSIX TCP on 127.0.0.1. The listener
//     binds an ephemeral port when asked for port 0 and reports the actual
//     port, so daemons and CI scripts never race over a fixed number.
//
// Both wrap their descriptor in the same transport, so the tests, the
// fuzzer, the tools and the daemon move every byte through one recv/send
// path, and a socketpair behaves as TCP does: a write blocks once the
// peer's socket buffer is full, and set_timeout() bounds reads and writes.
//
// The read side distinguishes "no more bytes ever" (read_some returns 0)
// from transport failure (DataError). shutdown_input() closes only the
// incoming direction: the peer's reads still drain, and our pending writes
// still flush — the primitive behind graceful server drain.
//
// Descriptors are reused as soon as they are closed, so a transport is
// closed only by the thread that reads it, or after that reader has
// stopped. Another thread may call shutdown_input() only while the reader
// is live (Server::shutdown does so under its mutex, which the reader holds
// to close its transport).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.hpp"

namespace adiv::serve {

class Transport {
public:
    virtual ~Transport() = default;

    /// Blocks until at least one byte is available; returns the number of
    /// bytes read, or 0 at end-of-stream. Throws DataError on failure.
    virtual std::size_t read_some(char* buffer, std::size_t capacity) = 0;

    /// Writes the whole buffer. Writes after the peer closed are discarded
    /// silently (the connection is ending; the response has nowhere to go).
    virtual void write_all(const char* data, std::size_t size) = 0;

    /// Closes the incoming direction only: our reads see end-of-stream,
    /// writes still work.
    virtual void shutdown_input() = 0;

    /// Closes both directions.
    virtual void close() = 0;

    /// Bounds how long one read_some() call, or one blocked send inside
    /// write_all(), may wait; 0 restores "forever". A timed-out call throws
    /// DataError — probes (loadgen --scrape-http, adiv_top) use this so a
    /// hung daemon fails them fast instead of wedging them, and the HTTP
    /// scrape endpoint so a hung scraper cannot hold its accept thread.
    virtual void set_timeout(int timeout_ms) = 0;
};

/// Two connected in-process endpoints (an AF_UNIX socketpair); bytes
/// written to one are read from the other. Both ends are safe for one
/// concurrent reader plus one concurrent writer each. Throws DataError when
/// the socketpair cannot be made.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_loopback_pair();

/// Frame helpers over a transport (framing itself is in protocol.hpp).
void write_frame(Transport& transport, std::string_view payload);

/// Reads one complete frame through the decoder. Returns nullopt on a clean
/// end-of-stream (decoder idle); throws DataError on mid-frame end-of-stream
/// or a malformed prefix.
std::optional<std::string> read_frame(Transport& transport, FrameDecoder& decoder);

/// Listening TCP socket on 127.0.0.1. Construction binds and listens;
/// port 0 picks an ephemeral port (see port()).
class TcpListener {
public:
    explicit TcpListener(std::uint16_t port, int backlog = 64);
    ~TcpListener();

    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    /// The bound port (the ephemeral one when constructed with 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Waits up to timeout_ms for a connection; nullptr on timeout or after
    /// close(). Throws DataError on listener failure.
    std::unique_ptr<Transport> accept(int timeout_ms);

    void close();

private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// Connects to a TCP server. A positive timeout_ms gives up after that
/// long (non-blocking connect + poll) instead of waiting out the kernel's
/// multi-minute SYN retries; timeout_ms <= 0 waits forever. Throws
/// DataError on failure or timeout.
std::unique_ptr<Transport> tcp_connect(const std::string& host,
                                       std::uint16_t port, int timeout_ms = 0);

}  // namespace adiv::serve
