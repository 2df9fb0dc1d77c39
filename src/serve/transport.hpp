// Byte transports for the detection server: a bidirectional stream
// abstraction with two implementations.
//
//   * LoopbackTransport — an in-process pipe pair (mutex + condvar byte
//     queues). make_loopback_pair() returns the two ends; what one end
//     writes, the other reads. Every protocol, session, and concurrency
//     test runs hermetically over these.
//   * TcpTransport / TcpListener — POSIX TCP on 127.0.0.1. The listener
//     binds an ephemeral port when asked for port 0 and reports the actual
//     port, so daemons and CI scripts never race over a fixed number.
//
// The read side distinguishes "no more bytes ever" (read_some returns 0)
// from transport failure (DataError). shutdown_input() closes only the
// incoming direction: the peer's reads still drain, and our pending writes
// still flush — the primitive behind graceful server drain.
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
    /// Default: unsupported, silently ignored (loopback reads are always
    /// paired with a writer in tests).
    virtual void set_timeout(int /*timeout_ms*/) {}
};

/// Two connected in-process endpoints; bytes written to one are read from
/// the other. Both ends are safe for one concurrent reader plus one
/// concurrent writer each.
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

/// Connects to a TCP server. Throws DataError when the connection fails.
std::unique_ptr<Transport> tcp_connect(const std::string& host, std::uint16_t port);

/// As tcp_connect(), but gives up after timeout_ms (non-blocking connect +
/// poll) instead of waiting out the kernel's multi-minute SYN retries;
/// timeout_ms <= 0 means wait forever. Throws DataError on failure or
/// timeout.
std::unique_ptr<Transport> tcp_connect(const std::string& host,
                                       std::uint16_t port, int timeout_ms);

}  // namespace adiv::serve
