#include "core/online.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace adiv {

OnlineScorer::OnlineScorer(const SequenceDetector& detector,
                           std::size_t buffer_capacity, MetricsRegistry& metrics)
    : detector_(&detector),
      capacity_(std::max(buffer_capacity, detector.window_length())),
      alphabet_size_(detector.alphabet_size()),
      events_counter_(metrics.counter("online.events_consumed")),
      alarm_rate_gauge_(metrics.gauge("online.alarm_rate")) {
    require(detector.window_length() >= 1, "detector window must be positive");
    if (buffer_capacity == 0) capacity_ = 4 * detector.window_length();
}

std::optional<double> OnlineScorer::push(Symbol event) {
    require_data(event < alphabet_size_, "event outside the training alphabet");
    buffer_.push_back(event);
    trim();
    ++consumed_;
    events_counter_.add(1);

    const std::size_t dw = detector_->window_length();
    if (buffer_.size() - head_ < dw) return std::nullopt;

    EventStream window_stream(
        alphabet_size_,
        Sequence(buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
                 buffer_.end()));
    const std::vector<double> responses = detector_->score(window_stream);
    ADIV_ASSERT(!responses.empty());
    const double response = responses.back();

    ++windows_;
    if (response >= kMaximalResponse) ++alarms_;
    alarm_rate_gauge_.set(alarm_rate());
    return response;
}

std::size_t OnlineScorer::push_batch(const Symbol* events, std::size_t count,
                                     std::vector<double>& out) {
    if (count == 0) return 0;
    if (!detector_->window_local()) {
        // The HMM's bounded-horizon approximation depends on the buffer
        // state at every single event; batching would change the numbers,
        // so the per-event loop stays the oracle here.
        std::size_t appended = 0;
        for (std::size_t i = 0; i < count; ++i)
            if (const auto score = push(events[i])) {
                out.push_back(*score);
                ++appended;
            }
        return appended;
    }
    // Consume the valid prefix exactly as the per-event path would, then
    // throw — so a rejected batch leaves the same state behind.
    std::size_t valid = 0;
    while (valid < count && events[valid] < alphabet_size_) ++valid;
    const std::size_t appended = score_window_local(events, valid, out);
    require_data(valid == count, "event outside the training alphabet");
    return appended;
}

std::size_t OnlineScorer::score_window_local(const Symbol* events,
                                             std::size_t count,
                                             std::vector<double>& out) {
    if (count == 0) return 0;
    buffer_.insert(buffer_.end(), events, events + count);
    consumed_ += count;
    events_counter_.add(count);

    const std::size_t dw = detector_->window_length();
    std::size_t appended = 0;
    if (consumed_ >= dw) {
        // One window per batch event at stream position >= DW; the slice
        // covering them all is the last (windows + DW - 1) events. Window
        // locality makes each slice window equal to the per-event path's
        // full-buffer rescore at the same position.
        const std::size_t new_windows = std::min(count, consumed_ - dw + 1);
        const std::size_t slice = new_windows + dw - 1;
        ADIV_ASSERT(slice <= buffer_.size() - head_);
        EventStream window_stream(
            alphabet_size_,
            Sequence(buffer_.end() - static_cast<std::ptrdiff_t>(slice),
                     buffer_.end()));
        const std::vector<double> responses = detector_->score(window_stream);
        ADIV_ASSERT(responses.size() == new_windows);
        for (const double response : responses) {
            out.push_back(response);
            ++windows_;
            if (response >= kMaximalResponse) ++alarms_;
        }
        appended = new_windows;
        alarm_rate_gauge_.set(alarm_rate());
    }
    trim();
    return appended;
}

void OnlineScorer::trim() {
    if (buffer_.size() - head_ > capacity_) head_ = buffer_.size() - capacity_;
    if (head_ > capacity_) {
        buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

void OnlineScorer::reset() {
    buffer_.clear();
    head_ = 0;
    consumed_ = 0;
    windows_ = 0;
    alarms_ = 0;
}

}  // namespace adiv
