#include "obs/profile.hpp"

#include <atomic>
#include <utility>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace adiv {

#if ADIV_PROFILE
namespace {
std::atomic<bool> g_profiling_enabled{false};
}  // namespace

bool profiling_enabled() noexcept {
    return g_profiling_enabled.load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) noexcept {
    g_profiling_enabled.store(on, std::memory_order_relaxed);
}
#endif

namespace {
// "serve.shard.table" + "wait_us" -> "serve.shard.table.wait_us". The
// metric-name lint checks string literals passed directly to instrument
// factories; bare leaves are joined here so only full dotted names reach
// those call sites.
std::string qualified(const std::string& prefix, const char* leaf) {
    return prefix + '.' + leaf;
}
}  // namespace

WaitSite::WaitSite(std::string name, MetricsRegistry& metrics)
    : name_(std::move(name)),
      acquires_(metrics.counter(qualified(name_, "acquires"))),
      contended_(metrics.counter(qualified(name_, "contended"))),
      wait_us_(metrics.sketch(qualified(name_, "wait_us"))) {}

WaitSiteRegistry::WaitSiteRegistry(MetricsRegistry& metrics)
    : metrics_(&metrics) {}

WaitSite& WaitSiteRegistry::site(const std::string& name) {
    require(!name.empty(), "wait site needs a name");
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = sites_.find(name);
    if (it == sites_.end())
        it = sites_.emplace(name, std::make_unique<WaitSite>(name, *metrics_))
                 .first;
    return *it->second;
}

std::vector<WaitSiteSummary> WaitSiteRegistry::summaries() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<WaitSiteSummary> out;
    out.reserve(sites_.size());
    for (const auto& [name, site] : sites_) {
        const SketchSummary waits = site->wait_summary();
        WaitSiteSummary summary;
        summary.name = name;
        summary.acquires = site->acquires();
        summary.contended = site->contended();
        summary.wait_us_total = waits.sum;
        summary.wait_us_mean = waits.mean;
        summary.wait_us_p95 = waits.p95;
        summary.wait_us_max = waits.max;
        out.push_back(std::move(summary));
    }
    return out;
}

std::string wait_site_jsonl(const WaitSiteSummary& summary) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value("wait_site");
    w.key("site").value(summary.name);
    w.key("acquires").value(summary.acquires);
    w.key("contended").value(summary.contended);
    w.key("wait_us_total").value(summary.wait_us_total);
    w.key("wait_us_mean").value(summary.wait_us_mean);
    w.key("wait_us_p95").value(summary.wait_us_p95);
    w.key("wait_us_max").value(summary.wait_us_max);
    w.end_object();
    return w.str();
}

void WaitSiteRegistry::write_jsonl(TraceSink& sink) const {
    if (!sink.enabled()) return;
    for (const WaitSiteSummary& summary : summaries())
        sink.write_line(wait_site_jsonl(summary));
}

WaitSiteRegistry& global_wait_sites() {
    static WaitSiteRegistry registry(global_metrics());
    return registry;
}

WaitSite& wait_site(const std::string& name) {
    return global_wait_sites().site(name);
}

}  // namespace adiv
