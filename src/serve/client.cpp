#include "serve/client.hpp"

#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv::serve {

Client::Client(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
    require(transport_ != nullptr, "client needs a transport");
}

void Client::set_trace(std::uint64_t trace_id) noexcept {
    trace_id_ = trace_id;
    request_index_ = 0;
    last_span_id_ = 0;
}

void Client::stamp_trace(Request& request) noexcept {
    if (trace_id_ == 0) return;
    // The request span is a root (parent 0); its id depends only on the
    // trace id and the request's ordinal, so a --verify replay re-mints the
    // identical ids.
    request.trace_id = trace_id_;
    request.span_id = derive_span_id(trace_id_, 0, request_index_++);
    last_span_id_ = request.span_id;
}

Response Client::call(const Request& request) {
    write_frame(*transport_, serialize(request));
    const std::optional<std::string> payload = read_frame(*transport_, decoder_);
    require_data(payload.has_value(), "server closed the connection");
    return parse_response(*payload);
}

Response Client::checked(const Request& request) {
    Response response = call(request);
    if (response.type == ResponseType::Error)
        throw ServeError("server error: " + response.message);
    return response;
}

OpenInfo Client::open(const std::string& target) {
    Request request;
    request.type = RequestType::Open;
    request.target = target;
    stamp_trace(request);
    std::optional<TraceSpan> span;
    if (request.trace_id != 0)
        span.emplace("serve.client_open",
                     TraceContext{request.trace_id, request.span_id});
    const Response response = checked(request);
    require_data(response.type == ResponseType::Opened,
                 "unexpected response to OPEN");
    return OpenInfo{response.session_id, response.detector, response.window,
                    response.alphabet};
}

std::vector<double> Client::push(SymbolView events) {
    Request request;
    request.type = RequestType::Push;
    request.events.assign(events.begin(), events.end());
    stamp_trace(request);
    std::optional<TraceSpan> span;
    if (request.trace_id != 0)
        span.emplace("serve.client_push",
                     TraceContext{request.trace_id, request.span_id});
    Response response = checked(request);
    require_data(response.type == ResponseType::Scores,
                 "unexpected response to PUSH");
    return std::move(response.scores);
}

Response Client::stats() {
    Request request;
    request.type = RequestType::Stats;
    Response response = checked(request);
    require_data(response.type == ResponseType::Stats,
                 "unexpected response to STATS");
    return response;
}

SessionCounts Client::drain() {
    Request request;
    request.type = RequestType::Drain;
    const Response response = checked(request);
    require_data(response.type == ResponseType::Drained,
                 "unexpected response to DRAIN");
    return response.counts;
}

std::string Client::dump() {
    Request request;
    request.type = RequestType::Dump;
    Response response = checked(request);
    require_data(response.type == ResponseType::Dumped,
                 "unexpected response to DUMP");
    return std::move(response.body);
}

SessionCounts Client::close_session() {
    Request request;
    request.type = RequestType::Close;
    const Response response = checked(request);
    require_data(response.type == ResponseType::Closed,
                 "unexpected response to CLOSE");
    return response.counts;
}

void Client::disconnect() { transport_->close(); }

}  // namespace adiv::serve
