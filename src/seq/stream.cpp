#include "seq/stream.hpp"

#include "util/error.hpp"

namespace adiv {

namespace {
void validate(std::size_t alphabet_size, SymbolView events) {
    for (Symbol s : events)
        if (s >= alphabet_size) [[unlikely]]
            throw DataError("event stream contains symbol " + std::to_string(s) +
                            " outside alphabet of size " +
                            std::to_string(alphabet_size));
}
}  // namespace

EventStream::EventStream(std::size_t alphabet_size, Sequence events)
    : alphabet_size_(alphabet_size), events_(std::move(events)) {
    require(alphabet_size_ > 0, "alphabet size must be positive");
    validate(alphabet_size_, events_);
}

EventStream::EventStream(std::size_t alphabet_size)
    : EventStream(alphabet_size, Sequence{}) {}

SymbolView EventStream::window(std::size_t pos, std::size_t length) const {
    require(pos + length <= events_.size(), "window outside stream bounds");
    return SymbolView(events_).subspan(pos, length);
}

std::size_t EventStream::window_count(std::size_t length) const noexcept {
    if (length == 0 || events_.size() < length) return 0;
    return events_.size() - length + 1;
}

void EventStream::push_back(Symbol s) {
    require_data(s < alphabet_size_, "symbol outside alphabet");
    events_.push_back(s);
}

void EventStream::append(SymbolView run) {
    validate(alphabet_size_, run);
    events_.insert(events_.end(), run.begin(), run.end());
}

EventStream EventStream::slice(std::size_t pos, std::size_t length) const {
    require(pos + length <= events_.size(), "slice outside stream bounds");
    return EventStream(alphabet_size_,
                       Sequence(events_.begin() + static_cast<std::ptrdiff_t>(pos),
                                events_.begin() + static_cast<std::ptrdiff_t>(pos + length)));
}

}  // namespace adiv
