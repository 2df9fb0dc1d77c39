// HTTP scrape endpoint: the pure response builder, the one-request server
// over a loopback transport, and the TCP listener end to end.
#include "serve/http_metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "serve/transport.hpp"
#include "support/proc_status.hpp"
#include "util/error.hpp"

namespace adiv::serve {
namespace {

std::string status_line(const std::string& response) {
    return response.substr(0, response.find("\r\n"));
}

std::string body_of(const std::string& response) {
    const std::size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string() : response.substr(split + 4);
}

std::string header_value(const std::string& response, const std::string& name) {
    const std::string needle = "\r\n" + name + ": ";
    const std::size_t at = response.find(needle);
    if (at == std::string::npos) return "";
    const std::size_t start = at + needle.size();
    return response.substr(start, response.find("\r\n", start) - start);
}

/// One GET /metrics over TCP; returns the whole response (the listener
/// closes the connection after it).
std::string scrape(std::uint16_t port) {
    std::unique_ptr<Transport> conn = tcp_connect("127.0.0.1", port);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    conn->write_all(request.data(), request.size());
    std::string response;
    char buffer[4096];
    for (;;) {
        const std::size_t n = conn->read_some(buffer, sizeof buffer);
        if (n == 0) break;
        response.append(buffer, n);
    }
    return response;
}

TEST(HttpMetrics, GetMetricsReturnsExposition) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(7);
    const std::string response =
        http_response_for("GET /metrics HTTP/1.0\r\n\r\n", reg);
    EXPECT_EQ(status_line(response), "HTTP/1.0 200 OK");
    EXPECT_EQ(header_value(response, "Content-Type"),
              "application/openmetrics-text; version=1.0.0; charset=utf-8");
    EXPECT_EQ(header_value(response, "Connection"), "close");
    const std::string body = body_of(response);
    EXPECT_EQ(header_value(response, "Content-Length"),
              std::to_string(body.size()));
    const OpenMetricsDocument doc = parse_openmetrics(body);
    EXPECT_EQ(doc.value("adiv_serve_events_pushed_total"), 7.0);
}

TEST(HttpMetrics, TrailingSlashAlsoMatches) {
    const MetricsRegistry reg;
    EXPECT_EQ(status_line(http_response_for(
                  "GET /metrics/ HTTP/1.1\r\nHost: x\r\n\r\n", reg)),
              "HTTP/1.0 200 OK");
}

TEST(HttpMetrics, UnknownTargetIs404) {
    const MetricsRegistry reg;
    const std::string response =
        http_response_for("GET /other HTTP/1.0\r\n\r\n", reg);
    EXPECT_EQ(status_line(response), "HTTP/1.0 404 Not Found");
    EXPECT_EQ(header_value(response, "Content-Length"),
              std::to_string(body_of(response).size()));
}

TEST(HttpMetrics, NonGetMethodIs405) {
    const MetricsRegistry reg;
    EXPECT_EQ(status_line(
                  http_response_for("POST /metrics HTTP/1.0\r\n\r\n", reg)),
              "HTTP/1.0 405 Method Not Allowed");
}

TEST(HttpMetrics, MalformedRequestLineIs400) {
    const MetricsRegistry reg;
    EXPECT_EQ(status_line(http_response_for("garbage", reg)),
              "HTTP/1.0 400 Bad Request");
    EXPECT_EQ(status_line(http_response_for("", reg)),
              "HTTP/1.0 400 Bad Request");
}

TEST(HttpMetrics, ServesOneRequestOverATransport) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(3);
    auto [client, server] = make_loopback_pair();
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    client->write_all(request.data(), request.size());

    std::string served;
    std::thread handler(
        [&] { served = serve_one_http_request(*server, reg); });

    std::string received;
    char buffer[4096];
    for (;;) {
        const std::size_t n = client->read_some(buffer, sizeof buffer);
        if (n == 0) break;
        received.append(buffer, n);
        // One response, Connection: close — stop once the advertised body
        // has fully arrived (the loopback end stays open).
        const std::string body = body_of(received);
        const std::string length = header_value(received, "Content-Length");
        if (!length.empty() && body.size() >= std::stoul(length)) break;
    }
    handler.join();
    EXPECT_EQ(received, served);
    EXPECT_EQ(status_line(received), "HTTP/1.0 200 OK");
    const OpenMetricsDocument doc = parse_openmetrics(body_of(received));
    EXPECT_EQ(doc.value("adiv_serve_events_pushed_total"), 3.0);
}

TEST(HttpMetrics, ListenerAnswersScrapesOverTcp) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(11);
    HttpMetricsListener listener(0, reg);
    ASSERT_NE(listener.port(), 0);

    for (int scrape = 0; scrape < 2; ++scrape) {
        std::unique_ptr<Transport> conn =
            tcp_connect("127.0.0.1", listener.port());
        const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
        conn->write_all(request.data(), request.size());
        std::string response;
        char buffer[4096];
        for (;;) {  // listener closes the connection after one response
            const std::size_t n = conn->read_some(buffer, sizeof buffer);
            if (n == 0) break;
            response.append(buffer, n);
        }
        EXPECT_EQ(status_line(response), "HTTP/1.0 200 OK");
        const OpenMetricsDocument doc = parse_openmetrics(body_of(response));
        EXPECT_EQ(doc.value("adiv_serve_events_pushed_total"), 11.0);
    }

    listener.stop();
    listener.stop();  // idempotent
}

TEST(HttpMetrics, ScrapeMetricsParsesALiveScrapeAndRejectsOtherAnswers) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(13);
    {
        HttpMetricsListener listener(0, reg);
        const OpenMetricsDocument doc = scrape_metrics("127.0.0.1", listener.port());
        EXPECT_EQ(doc.value("adiv_serve_events_pushed_total"), 13.0);
    }

    // A peer that answers anything but HTTP/1.0 200 and an OpenMetrics body
    // is an error, not a document.
    const std::vector<std::string> answers = {
        "HTTP/1.0 404 Not Found\r\nConnection: close\r\n\r\nno such target\n",
        "HTTP/1.0 200 OK\r\nConnection: close\r\n\r\nnot openmetrics\n",
        "SSH-2.0-OpenSSH\r\n",
    };
    TcpListener peer(0);
    std::thread answerer([&] {
        for (const std::string& answer : answers) {
            std::unique_ptr<Transport> conn = peer.accept(5000);
            if (!conn) return;
            char buffer[256];
            (void)conn->read_some(buffer, sizeof buffer);
            conn->write_all(answer.data(), answer.size());
            conn->close();
        }
    });
    for (const std::string& answer : answers)
        EXPECT_THROW((void)scrape_metrics("127.0.0.1", peer.port()), DataError)
            << answer;
    answerer.join();
}

TEST(HttpMetrics, SequentialScrapesLeaveNoThreadBehind) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(5);
    HttpMetricsListener listener(0, reg);
    ASSERT_EQ(status_line(scrape(listener.port())), "HTTP/1.0 200 OK");
    const long before_kb = test::proc_status_kb("VmSize");
    ASSERT_GT(before_kb, 0);
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(status_line(scrape(listener.port())), "HTTP/1.0 200 OK");
    // A thread kept per scrape, even one that has exited, keeps its stack
    // mapped (8 MB by default), so 200 of them would add over 1.5 GB.
    EXPECT_LT(test::proc_status_kb("VmSize") - before_kb, 8 * 1024);
}

TEST(HttpMetrics, SilentAndDrippingClientsAreCutOffAtTheDeadline) {
    MetricsRegistry reg;
    HttpMetricsListener listener(0, reg);
    using Clock = std::chrono::steady_clock;
    constexpr std::chrono::milliseconds kGiveUp{5000};

    // Connects, sends one byte every 50 ms when `drip` (never completing a
    // request head), and returns how long the listener kept the connection
    // open, giving up after kGiveUp. Any response to the incomplete head
    // fails the test.
    const auto held_open_for = [&](bool drip) {
        std::unique_ptr<Transport> conn =
            tcp_connect("127.0.0.1", listener.port());
        const Clock::time_point start = Clock::now();
        conn->set_timeout(drip ? 50 : static_cast<int>(kGiveUp.count()));
        char buffer[256];
        while (Clock::now() - start < kGiveUp) {
            if (drip) conn->write_all("G", 1);
            try {
                const std::size_t n = conn->read_some(buffer, sizeof buffer);
                EXPECT_EQ(n, 0u) << "the listener answered an incomplete head";
                break;  // closed by the listener
            } catch (const DataError&) {
                // Nothing within the read timeout: drip again, or give up.
            }
        }
        return Clock::now() - start;
    };
    for (const bool drip : {false, true}) {
        const Clock::duration held = held_open_for(drip);
        EXPECT_GE(held, kHttpRequestDeadline - std::chrono::milliseconds(100))
            << (drip ? "dripping" : "silent") << " client";
        EXPECT_LT(held, kHttpRequestDeadline + std::chrono::milliseconds(2000))
            << (drip ? "dripping" : "silent") << " client";
    }
    // The loop is free again: the next scrape is answered.
    EXPECT_EQ(status_line(scrape(listener.port())), "HTTP/1.0 200 OK");
}

}  // namespace
}  // namespace adiv::serve
