// Fuzz target for the HTTP scrape endpoint's request-head parser
// (serve/http_metrics.hpp), which faces the network: http_response_for
// on the raw bytes, and the one-request server (serve_one_http_request) over
// a socketpair from make_loopback_pair, so the header-accumulation loop and
// its 16 KB cap run too, over the socket transport the listener uses. Whatever the bytes, every response must be a well-formed reply: it
// starts with "HTTP/1.0 ", carries `Connection: close`, and its
// Content-Length equals its body length.
//
// The same entry point runs under libFuzzer (ADIV_FUZZ=ON with Clang) and
// under the deterministic corpus-replay main in replay_main.cpp.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "serve/http_metrics.hpp"
#include "serve/transport.hpp"

namespace {

void check_response(const std::string& response) {
    if (response.rfind("HTTP/1.0 ", 0) != 0) __builtin_trap();
    const std::size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos) __builtin_trap();
    // The header block with each header line ending in CRLF.
    const std::string_view head(response.data(), split + 2);
    if (head.find("\r\nConnection: close\r\n") == std::string_view::npos)
        __builtin_trap();
    constexpr std::string_view kLength = "\r\nContent-Length: ";
    const std::size_t at = head.find(kLength);
    if (at == std::string_view::npos) __builtin_trap();
    const std::size_t start = at + kLength.size();
    const std::string_view length =
        head.substr(start, head.find("\r\n", start) - start);
    if (length != std::to_string(response.size() - split - 4)) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    // A counter and a sketch give the 200 response a non-trivial body.
    static adiv::MetricsRegistry metrics;
    metrics.counter("serve.events_pushed").add(1);
    metrics.sketch("serve.stage.total_us").record(static_cast<double>(size));
    const std::string_view bytes(reinterpret_cast<const char*>(data), size);
    check_response(adiv::serve::http_response_for(bytes, metrics));

    // The input is everything the client ever sends: write it, then close,
    // so the server's reads see end-of-stream after the last byte. One
    // thread writes before the server end reads, so the write must fit in
    // the socket buffer (about 208 KiB): at most the first 64 KiB is sent.
    // The server stops reading once it holds 16 KiB of request head, so a
    // longer input reaches nothing more.
    constexpr std::size_t kMaxRequestBytes = 64 * 1024;
    auto [client, server] = adiv::serve::make_loopback_pair();
    client->write_all(bytes.data(), std::min(bytes.size(), kMaxRequestBytes));
    client->close();
    check_response(adiv::serve::serve_one_http_request(*server, metrics));
    return 0;
}
