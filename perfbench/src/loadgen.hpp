// The program under test as a child process, and the load generator that
// drives it over TCP: one thread and one connection per session, writing
// precomputed frames and checking every reply byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "traffic.hpp"

namespace perfbench {

/// An adiv_serve daemon started for one run. It dies with this process
/// (PR_SET_PDEATHSIG), so no run can leave one behind.
class Daemon {
public:
    /// Starts `binary args...` and waits until it reports its listening
    /// port. stderr goes to `log_path`. Throws when it does not come up.
    Daemon(const std::string& binary, const std::vector<std::string>& args,
           const std::string& log_path);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] int pid() const noexcept { return pid_; }
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// SIGTERM, then waits for the graceful drain (SIGKILL after a grace
    /// period). True when the daemon exited 0 after reporting "drained".
    bool stop();

private:
    int pid_ = -1;
    int stdout_fd_ = -1;
    std::uint16_t port_ = 0;
    std::string log_path_;
    std::string output_;
};

/// One timed phase: an open loop at a fixed rate, or a fixed number of
/// frames in flight per connection.
struct Phase {
    std::string name;
    double seconds = 0.0;
    double rate_eps = 0.0;       // > 0: open loop at this many events/s
    std::size_t in_flight = 0;   // otherwise: frames in flight per connection
};

struct PhaseStats {
    double seconds = 0.0;           // phase start -> last reply in
    double daemon_cpu_s = 0.0;      // the daemon's CPU over the same interval
    std::uint64_t events = 0;       // events in PUSH replies received
    std::vector<double> latency_ms;   // open loop: due time -> reply read
    std::vector<double> lateness_ms;  // open loop: due time -> frame written
    double check_ns = 0.0;          // generator time decoding/checking replies
};

class Connection;

/// kConnections sessions against one daemon. Sessions open in a fixed
/// order; each then walks the traffic scripts, reopening every
/// kFramesPerSession frames (DRAIN, CLOSE, OPEN pipelined behind the last
/// PUSH). Every request counts as one attempted operation in `result`; a
/// wrong or missing reply, an ERR or a failed connect counts as failed.
class LoadGenerator {
public:
    LoadGenerator(const Traffic& traffic, const ServeWorkload& workload,
                  std::uint16_t port, Result& result);
    ~LoadGenerator();
    LoadGenerator(const LoadGenerator&) = delete;
    LoadGenerator& operator=(const LoadGenerator&) = delete;

    /// Connects and opens every session, one after another.
    void open_sessions();

    /// Runs the phases back to back, one thread per connection; a phase
    /// ends when every connection has its replies in.
    std::vector<PhaseStats> run(const std::vector<Phase>& phases, int daemon_pid);

    /// DRAIN and CLOSE on every session, then disconnect.
    void finish();

private:
    /// Moves the connections' operation counts into the result.
    void collect();

    std::vector<std::unique_ptr<Connection>> connections_;
    Result* result_;
};

}  // namespace perfbench
