#include "obs/metrics.hpp"

#include "obs/json.hpp"
#include "obs/trace.hpp"  // hex16 for exemplar ids
#include "util/table.hpp"

namespace adiv {

Counter& MetricsRegistry::counter(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Sketch& MetricsRegistry::sketch(const std::string& name, double relative_error) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = sketches_[name];
    if (!slot) slot = std::make_unique<Sketch>(relative_error);
    return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Sketch* MetricsRegistry::find_sketch(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sketches_.find(name);
    return it == sketches_.end() ? nullptr : it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    for (const auto& [name, counter] : counters_)
        snap.counters.emplace_back(name, counter->value());
    for (const auto& [name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge->value());
    for (const auto& [name, sketch] : sketches_)
        snap.sketches.emplace_back(name, sketch->summary());
    return snap;
}

void MetricsRegistry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, counter] : counters_) counter->reset();
    for (auto& [name, gauge] : gauges_) gauge->reset();
    for (auto& [name, sketch] : sketches_) sketch->reset();
}

MetricsRegistry& global_metrics() {
    static MetricsRegistry registry;
    return registry;
}

std::string render_metrics_table(const MetricsRegistry& registry) {
    const MetricsRegistry::Snapshot snap = registry.snapshot();
    std::string out;
    if (!snap.counters.empty()) {
        TextTable table;
        table.header({"counter", "value"});
        for (const auto& [name, value] : snap.counters) table.add(name, value);
        out += table.render();
    }
    if (!snap.gauges.empty()) {
        if (!out.empty()) out += '\n';
        TextTable table;
        table.header({"gauge", "value"});
        for (const auto& [name, value] : snap.gauges) table.add(name, fixed(value, 6));
        out += table.render();
    }
    if (!snap.sketches.empty()) {
        if (!out.empty()) out += '\n';
        TextTable table;
        table.header({"sketch", "count", "mean", "p50", "p95", "p99", "max"});
        for (const auto& [name, s] : snap.sketches)
            table.add(name, s.count, fixed(s.mean, 3), fixed(s.p50, 3),
                      fixed(s.p95, 3), fixed(s.p99, 3), fixed(s.max, 3));
        out += table.render();
    }
    if (out.empty()) out = "(no metrics recorded)\n";
    return out;
}

std::string metrics_to_json(const MetricsRegistry& registry) {
    const MetricsRegistry::Snapshot snap = registry.snapshot();
    JsonWriter w;
    w.begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, value] : snap.counters) w.key(name).value(value);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, value] : snap.gauges) w.key(name).value(value);
    w.end_object();
    w.key("sketches").begin_object();
    for (const auto& [name, s] : snap.sketches) {
        w.key(name).begin_object();
        w.key("count").value(s.count);
        w.key("sum").value(s.sum);
        w.key("mean").value(s.mean);
        w.key("min").value(s.min);
        w.key("max").value(s.max);
        w.key("p50").value(s.p50);
        w.key("p95").value(s.p95);
        w.key("p99").value(s.p99);
        if (s.has_exemplar()) {
            w.key("exemplar_trace").value(hex16(s.exemplar_trace));
            w.key("exemplar_span").value(hex16(s.exemplar_span));
            w.key("exemplar_value").value(s.exemplar_value);
        }
        w.end_object();
    }
    w.end_object();
    w.end_object();
    return w.str();
}

}  // namespace adiv
