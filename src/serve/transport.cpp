#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace adiv::serve {

namespace {

/// One connected stream socket: an accepted or connected TCP socket, or one
/// end of a Unix socketpair. Nothing here depends on the address family.
class SocketTransport final : public Transport {
public:
    explicit SocketTransport(int fd) : fd_(fd) {}

    ~SocketTransport() override { close(); }

    std::size_t read_some(char* buffer, std::size_t capacity) override {
        for (;;) {
            const int fd = fd_.load(std::memory_order_acquire);
            if (fd < 0) return 0;  // closed locally
            const ssize_t n = ::recv(fd, buffer, capacity, 0);
            if (n >= 0) return static_cast<std::size_t>(n);
            if (errno == EINTR) continue;
            // SO_RCVTIMEO expiry (set_timeout): a hung peer is a
            // failure, not end-of-stream — the caller's probe must abort.
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw DataError("recv timed out");
            // A vanished peer or a concurrent local close() both read as
            // end-of-stream, not failure.
            if (errno == ECONNRESET || errno == EBADF) return 0;
            throw DataError(std::string("recv failed: ") + std::strerror(errno));
        }
    }

    void write_all(const char* data, std::size_t size) override {
        std::size_t sent = 0;
        while (sent < size) {
            const int fd = fd_.load(std::memory_order_acquire);
            if (fd < 0) return;
            const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) continue;
                // SO_SNDTIMEO expiry: the peer stopped reading and the
                // socket buffer stayed full for the whole timeout.
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    throw DataError("send timed out");
                // Peer closed: drop the rest, as documented on Transport.
                if (errno == EPIPE || errno == ECONNRESET || errno == EBADF) return;
                throw DataError(std::string("send failed: ") + std::strerror(errno));
            }
            sent += static_cast<std::size_t>(n);
        }
    }

    void shutdown_input() override {
        const int fd = fd_.load(std::memory_order_acquire);
        if (fd >= 0) ::shutdown(fd, SHUT_RD);
    }

    void close() override {
        const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
        if (fd >= 0) {
            ::shutdown(fd, SHUT_RDWR);
            ::close(fd);
        }
    }

    void set_timeout(int timeout_ms) override {
        const int fd = fd_.load(std::memory_order_acquire);
        if (fd < 0) return;
        timeval tv{};
        if (timeout_ms > 0) {
            tv.tv_sec = timeout_ms / 1000;
            tv.tv_usec = (timeout_ms % 1000) * 1000;
        }
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }

private:
    std::atomic<int> fd_;
};

sockaddr_in loopback_address(std::uint16_t port) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return address;
}

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_loopback_pair() {
    int fds[2];
    require_data(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0,
                 std::string("socketpair failed: ") + std::strerror(errno));
    return {std::make_unique<SocketTransport>(fds[0]),
            std::make_unique<SocketTransport>(fds[1])};
}

// ---------------------------------------------------------------------------
// Frame helpers
// ---------------------------------------------------------------------------

void write_frame(Transport& transport, std::string_view payload) {
    const std::string frame = encode_frame(payload);
    transport.write_all(frame.data(), frame.size());
}

std::optional<std::string> read_frame(Transport& transport, FrameDecoder& decoder) {
    for (;;) {
        if (auto payload = decoder.next()) return payload;
        char buffer[4096];
        const std::size_t n = transport.read_some(buffer, sizeof buffer);
        if (n == 0) {
            require_data(decoder.idle(), "connection closed mid-frame");
            return std::nullopt;
        }
        decoder.feed({buffer, n});
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

TcpListener::TcpListener(std::uint16_t port, int backlog) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require_data(fd_ >= 0, std::string("socket failed: ") + std::strerror(errno));
    const int reuse = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
    sockaddr_in address = loopback_address(port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw DataError("bind to 127.0.0.1:" + std::to_string(port) +
                        " failed: " + reason);
    }
    if (::listen(fd_, backlog) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw DataError("listen failed: " + reason);
    }
    socklen_t length = sizeof address;
    require_data(::getsockname(fd_, reinterpret_cast<sockaddr*>(&address),
                               &length) == 0,
                 "getsockname failed");
    port_ = ntohs(address.sin_port);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<Transport> TcpListener::accept(int timeout_ms) {
    if (fd_ < 0) return nullptr;
    pollfd poller{fd_, POLLIN, 0};
    const int ready = ::poll(&poller, 1, timeout_ms);
    if (ready == 0) return nullptr;
    if (ready < 0) {
        if (errno == EINTR) return nullptr;
        throw DataError(std::string("poll failed: ") + std::strerror(errno));
    }
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
        // close() from another thread surfaces here; treat as "no client".
        if (errno == EBADF || errno == EINVAL || errno == EINTR) return nullptr;
        throw DataError(std::string("accept failed: ") + std::strerror(errno));
    }
    const int nodelay = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    return std::make_unique<SocketTransport>(client);
}

void TcpListener::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::unique_ptr<Transport> tcp_connect(const std::string& host,
                                       std::uint16_t port, int timeout_ms) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    require_data(fd >= 0, std::string("socket failed: ") + std::strerror(errno));
    sockaddr_in address = loopback_address(port);
    if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
        ::close(fd);
        throw DataError("cannot parse host address '" + host + "'");
    }
    const auto fail = [&](const std::string& reason) {
        ::close(fd);
        throw DataError("connect to " + host + ":" + std::to_string(port) +
                        " failed: " + reason);
    };
    if (timeout_ms <= 0) {
        if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof address) != 0)
            fail(std::strerror(errno));
    } else {
        // Bounded connect: go non-blocking, start the handshake, poll for
        // writability, read the outcome from SO_ERROR, restore blocking.
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof address) != 0) {
            if (errno != EINPROGRESS) fail(std::strerror(errno));
            pollfd poller{fd, POLLOUT, 0};
            const int ready = ::poll(&poller, 1, timeout_ms);
            if (ready == 0) fail("timed out");
            if (ready < 0) fail(std::strerror(errno));
            int error = 0;
            socklen_t length = sizeof error;
            if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0)
                fail(std::strerror(errno));
            if (error != 0) fail(std::strerror(error));
        }
        ::fcntl(fd, F_SETFL, flags);
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    return std::make_unique<SocketTransport>(fd);
}

}  // namespace adiv::serve
