#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {

namespace {

using namespace std::chrono_literals;
using adiv::serve::ResponseType;

/// Outstanding requests with no reply for this long fail as timed out.
constexpr auto kReplyTimeout = 10s;
/// Frames the open loop lets into flight per connection. Past it, due frames
/// wait; they still count late, from their due time.
constexpr std::size_t kOpenLoopCap = 64;

double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path)
    : log_path_(log_path) {
    int pipe_fds[2] = {-1, -1};
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    std::vector<std::string> storage{binary};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = log_fd < 0 ? -1 : ::fork();
    if (pid_ == 0) {
        // Only async-signal-safe calls between fork and exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(pipe_fds[1], STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(pipe_fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    stdout_fd_ = pipe_fds[0];
    if (pid_ < 0) {
        stop();
        throw std::runtime_error("cannot start " + binary);
    }

    const std::string marker = "listening on 127.0.0.1:";
    const Clock::time_point deadline = Clock::now() + 30s;
    for (;;) {
        const std::size_t at = output_.find(marker);
        if (at != std::string::npos && output_.find('\n', at) != std::string::npos) {
            port_ = static_cast<std::uint16_t>(std::stoi(output_.substr(at + marker.size())));
            return;
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        pollfd readable{stdout_fd_, POLLIN, 0};
        char buffer[4096];
        ssize_t n = -1;
        if (left.count() > 0 && ::poll(&readable, 1, static_cast<int>(left.count())) > 0)
            n = ::read(stdout_fd_, buffer, sizeof buffer);
        if (n <= 0) {
            stop();
            throw std::runtime_error("adiv_serve did not come up; see " + log_path_);
        }
        output_.append(buffer, static_cast<std::size_t>(n));
    }
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
    bool clean = false;
    if (pid_ > 0) {
        ::kill(pid_, SIGTERM);
        int status = 0;
        bool exited = false;
        const Clock::time_point deadline = Clock::now() + 20s;
        while (!exited && Clock::now() < deadline) {
            const pid_t done = ::waitpid(pid_, &status, WNOHANG);
            if (done == pid_) exited = true;
            else if (done < 0 && errno != EINTR) break;
            else std::this_thread::sleep_for(5ms);
        }
        if (!exited) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
        }
        clean = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
        char buffer[4096];
        ssize_t n = 0;
        while ((n = ::read(stdout_fd_, buffer, sizeof buffer)) > 0)
            output_.append(buffer, static_cast<std::size_t>(n));
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
    return clean && output_.find("drained") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

/// One session's connection. Single-threaded: the thread that runs a phase
/// owns it for the phase.
class Connection {
public:
    Connection(const Traffic& traffic, const ServeWorkload& workload, std::size_t index)
        : traffic_(traffic),
          workload_(workload),
          index_(index),
          open_frame_(adiv::serve::encode_frame("OPEN " + workload.target)),
          drain_frame_(adiv::serve::encode_frame("DRAIN")),
          close_frame_(adiv::serve::encode_frame("CLOSE")) {}

    ~Connection() {
        if (fd_ >= 0) ::close(fd_);
    }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    void connect(std::uint16_t port) {
        ++attempted;
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(port);
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
            fail(std::string("connect: ") + std::strerror(errno));
            dead_ = true;
            return;
        }
        const int nodelay = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    }

    /// OPEN, and wait for the reply.
    void open_session() {
        queue(Kind::Open, open_frame_, 0);
        settle();
    }

    /// DRAIN and CLOSE the current session, wait for both replies, hang up.
    void finish() {
        queue(Kind::Drain, drain_frame_, frame_);
        queue(Kind::Close, close_frame_, frame_);
        settle();
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    void run(const Phase& phase, Clock::time_point start, PhaseStats& stats) noexcept {
        try {
            run_phase(phase, start, stats);
        } catch (const std::exception& error) {
            abandon(error.what());
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

private:
    void run_phase(const Phase& phase, Clock::time_point start, PhaseStats& stats) {
        const bool open_loop = phase.rate_eps > 0.0;
        const Clock::time_point end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(phase.seconds));
        // Each connection carries an equal share of the rate; their
        // schedules are staggered so the frames interleave evenly.
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(static_cast<double>(workload_.frame_events) *
                                          static_cast<double>(kConnections) /
                                          std::max(phase.rate_eps, 1.0)));
        Clock::time_point next_due =
            start + interval * static_cast<long>(index_) / static_cast<long>(kConnections);
        bool sending = true;
        while (!dead_) {
            const Clock::time_point now = Clock::now();
            if (sending && now >= end) sending = false;
            if (sending && open_loop) {
                while (next_due <= now && pushes_in_flight_ < kOpenLoopCap) {
                    stats.lateness_ms.push_back(ms_between(next_due, now));
                    queue_push(next_due, true);
                    next_due += interval;
                }
            } else if (sending) {
                while (pushes_in_flight_ < phase.in_flight) queue_push(now, false);
            }
            if (!flush()) return;
            if (!sending && pending_.empty()) return;
            Clock::time_point wake = now + 100ms;
            if (sending && open_loop && pushes_in_flight_ < kOpenLoopCap)
                wake = std::min(next_due, end);
            else if (sending && !open_loop)
                wake = end;
            wait_until(wake, &stats);
        }
    }

    enum class Kind : std::uint8_t { Open, Push, Drain, Close };
    struct Pending {
        Kind kind = Kind::Push;
        std::uint32_t script = 0;
        std::uint32_t frame = 0;  // Push: its index; Drain/Close: frames sent
        Clock::time_point due;
        bool timed = false;
    };

    [[nodiscard]] std::uint32_t script_index() const {
        return static_cast<std::uint32_t>((session_ * kConnections + index_) %
                                          traffic_.scripts.size());
    }

    void queue(Kind kind, const std::string& frame, std::uint32_t frames_sent,
               Clock::time_point due = {}, bool timed = false) {
        if (dead_) return;
        if (pending_.empty()) last_reply_ = Clock::now();
        out_ += frame;
        pending_.push_back({kind, script_index(), frames_sent, due, timed});
        ++attempted;
    }

    void queue_push(Clock::time_point due, bool timed) {
        queue(Kind::Push, traffic_.scripts[script_index()].requests[frame_], frame_, due,
              timed);
        ++pushes_in_flight_;
        if (++frame_ < kFramesPerSession) return;
        // Session turnover, pipelined behind the session's last frame.
        queue(Kind::Drain, drain_frame_, frame_);
        queue(Kind::Close, close_frame_, frame_);
        ++session_;
        frame_ = 0;
        queue(Kind::Open, open_frame_, 0);
    }

    /// Waits until every outstanding request has its reply (or failed).
    void settle() {
        while (!dead_ && (!pending_.empty() || out_pos_ < out_.size())) {
            if (!flush()) return;
            wait_until(Clock::now() + 100ms, nullptr);
        }
    }

    void wait_until(Clock::time_point wake, PhaseStats* stats) {
        const auto left = std::max(wake - Clock::now(), Clock::duration::zero());
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
        const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                               static_cast<long>(ns % 1'000'000'000)};
        pollfd ready{fd_, static_cast<short>(POLLIN | (out_pos_ < out_.size() ? POLLOUT : 0)),
                     0};
        if (::ppoll(&ready, 1, &timeout, nullptr) > 0 &&
            (ready.revents & (POLLIN | POLLERR | POLLHUP)) != 0)
            receive(stats);
        if (!dead_ && !pending_.empty() && Clock::now() - last_reply_ > kReplyTimeout)
            abandon("no reply for 10 s");
    }

    bool flush() {
        while (!dead_ && out_pos_ < out_.size()) {
            const ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                                     MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
            if (n < 0) {
                abandon(std::string("send: ") + std::strerror(errno));
                return false;
            }
            out_pos_ += static_cast<std::size_t>(n);
        }
        if (out_pos_ == out_.size()) {
            out_.clear();
            out_pos_ = 0;
        }
        return !dead_;
    }

    void receive(PhaseStats* stats) {
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk_, sizeof chunk_, MSG_DONTWAIT);
            const int error = errno;
            if (n < 0 && error == EINTR) continue;
            if (n < 0 && (error == EAGAIN || error == EWOULDBLOCK)) return;
            if (n <= 0) {
                abandon(n == 0 ? "daemon closed the connection"
                               : std::string("recv: ") + std::strerror(error));
                return;
            }
            const Clock::time_point now = Clock::now();
            last_reply_ = now;
            in_.append(chunk_, static_cast<std::size_t>(n));
            parse_replies(now, stats);
            if (stats != nullptr)
                stats->check_ns += std::chrono::duration<double, std::nano>(
                                       Clock::now() - now)
                                       .count();
        }
    }

    void parse_replies(Clock::time_point now, PhaseStats* stats) {
        const std::string_view bytes(in_);
        while (!dead_) {
            const std::size_t space = bytes.find(' ', in_pos_);
            if (space == std::string_view::npos || space - in_pos_ > 8) {
                if (space != std::string_view::npos || bytes.size() - in_pos_ > 8)
                    abandon("malformed frame from the daemon");
                break;
            }
            std::size_t length = 0;
            for (std::size_t i = in_pos_; i < space; ++i) {
                if (bytes[i] < '0' || bytes[i] > '9') {
                    abandon("malformed frame from the daemon");
                    return;
                }
                length = length * 10 + static_cast<std::size_t>(bytes[i] - '0');
            }
            if (bytes.size() - space - 1 < length) break;
            check_reply(bytes.substr(space + 1, length), now, stats);
            in_pos_ = space + 1 + length;
        }
        // Drop what is parsed; a partial frame stays for the next read.
        if (in_pos_ == in_.size() || in_pos_ >= sizeof chunk_) {
            in_.erase(0, in_pos_);
            in_pos_ = 0;
        }
    }

    void check_reply(std::string_view payload, Clock::time_point now, PhaseStats* stats) {
        if (pending_.empty()) {
            abandon("a reply to no request");
            return;
        }
        const Pending request = pending_.front();
        pending_.pop_front();
        bool ok = false;
        switch (request.kind) {
            case Kind::Push:
                --pushes_in_flight_;
                ok = payload == traffic_.scripts[request.script].replies[request.frame];
                if (ok && stats != nullptr) {
                    stats->events += workload_.frame_events;
                    if (request.timed)
                        stats->latency_ms.push_back(ms_between(request.due, now));
                }
                break;
            case Kind::Drain:
                ok = payload == traffic_.counts_reply(ResponseType::Drained,
                                                      request.script, request.frame);
                break;
            case Kind::Close:
                ok = payload == traffic_.counts_reply(ResponseType::Closed,
                                                      request.script, request.frame);
                break;
            case Kind::Open:
                ok = payload.starts_with("OPENED ") &&
                     payload.ends_with(traffic_.opened_suffix);
                break;
        }
        if (!ok) fail("unexpected reply: " + std::string(payload.substr(0, 80)));
    }

    void fail(const std::string& why, std::uint64_t count = 1) {
        failed += count;
        if (failures.size() < 5)
            failures.push_back("connection " + std::to_string(index_) + ": " + why);
    }

    /// The connection is lost: every outstanding request fails.
    void abandon(const std::string& why) {
        if (dead_) return;
        dead_ = true;
        fail(why, std::max<std::uint64_t>(pending_.size(), 1));
        pending_.clear();
        pushes_in_flight_ = 0;
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    const Traffic& traffic_;
    const ServeWorkload& workload_;
    std::size_t index_;
    std::string open_frame_;
    std::string drain_frame_;
    std::string close_frame_;
    int fd_ = -1;
    bool dead_ = false;
    std::string out_;
    std::size_t out_pos_ = 0;
    char chunk_[65536];
    std::string in_;
    std::size_t in_pos_ = 0;
    std::deque<Pending> pending_;
    std::size_t pushes_in_flight_ = 0;
    Clock::time_point last_reply_;
    std::uint64_t session_ = 0;  // sessions this connection has opened, less one
    std::uint32_t frame_ = 0;    // next frame of the current session's script
};

// ---------------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------------

LoadGenerator::LoadGenerator(const Traffic& traffic, const ServeWorkload& workload,
                             std::uint16_t port, Result& result)
    : result_(&result) {
    for (std::size_t c = 0; c < kConnections; ++c) {
        connections_.push_back(std::make_unique<Connection>(traffic, workload, c));
        connections_.back()->connect(port);
    }
}

LoadGenerator::~LoadGenerator() { collect(); }

void LoadGenerator::collect() {
    for (const auto& connection : connections_) {
        result_->check_many(connection->attempted, connection->failed,
                            connection->failures.empty() ? std::string("request failed")
                                                         : connection->failures.front());
        for (std::size_t i = 1; i < connection->failures.size(); ++i)
            if (result_->failures.size() < 20)
                result_->failures.push_back(connection->failures[i]);
        connection->attempted = 0;
        connection->failed = 0;
        connection->failures.clear();
    }
}

void LoadGenerator::open_sessions() {
    for (const auto& connection : connections_) connection->open_session();
    collect();
}

std::vector<PhaseStats> LoadGenerator::run(const std::vector<Phase>& phases,
                                           int daemon_pid) {
    std::vector<PhaseStats> totals(phases.size());
    std::vector<std::vector<PhaseStats>> stats(connections_.size(),
                                               std::vector<PhaseStats>(phases.size()));
    // The barrier's completion step closes the phase that just ended and
    // opens the next: all replies of a phase are in before it is timed.
    std::size_t next_phase = 0;
    Clock::time_point phase_start;
    double cpu_at_start = 0.0;
    const auto between_phases = [&]() noexcept {
        const Clock::time_point now = Clock::now();
        double cpu = 0.0;
        try {
            cpu = process_cpu_seconds(daemon_pid);
        } catch (...) {
        }
        if (next_phase > 0) {
            totals[next_phase - 1].seconds = seconds_between(phase_start, now);
            totals[next_phase - 1].daemon_cpu_s = cpu - cpu_at_start;
        }
        phase_start = now;
        cpu_at_start = cpu;
        ++next_phase;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(connections_.size()), between_phases);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections_.size(); ++c)
        threads.emplace_back([&, c] {
            for (std::size_t p = 0; p < phases.size(); ++p) {
                sync.arrive_and_wait();
                connections_[c]->run(phases[p], phase_start, stats[c][p]);
            }
            sync.arrive_and_wait();
        });
    for (std::thread& thread : threads) thread.join();

    for (std::size_t p = 0; p < phases.size(); ++p)
        for (const auto& per_connection : stats) {
            const PhaseStats& s = per_connection[p];
            totals[p].events += s.events;
            totals[p].check_ns += s.check_ns;
            totals[p].latency_ms.insert(totals[p].latency_ms.end(), s.latency_ms.begin(),
                                        s.latency_ms.end());
            totals[p].lateness_ms.insert(totals[p].lateness_ms.end(),
                                         s.lateness_ms.begin(), s.lateness_ms.end());
        }
    collect();
    return totals;
}

void LoadGenerator::finish() {
    for (const auto& connection : connections_) connection->finish();
    collect();
}

}  // namespace perfbench
