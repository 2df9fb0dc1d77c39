#include "obs/profile.hpp"

#include <atomic>

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

WaitSite::WaitSite(const std::string& name, MetricsRegistry& metrics)
    : acquires_(metrics.counter(qualified(name, "acquires"))),
      contended_(metrics.counter(qualified(name, "contended"))),
      wait_us_(metrics.sketch(qualified(name, "wait_us"))) {}

}  // namespace adiv
