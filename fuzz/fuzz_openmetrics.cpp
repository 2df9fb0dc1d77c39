// Fuzz target for the OpenMetrics parser (obs/openmetrics.hpp), which reads
// what adiv_top and adiv_loadgen --scrape-http get off a socket. The
// contract: arbitrary bytes make parse_openmetrics return a document or
// throw DataError, never anything else, crash or hang. A document that
// parses must find each of its own samples again.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/openmetrics.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string_view text(reinterpret_cast<const char*>(data), size);
    try {
        const adiv::OpenMetricsDocument doc = adiv::parse_openmetrics(text);
        for (const adiv::OpenMetricsSample& sample : doc.samples)
            if (!doc.value(sample.name, sample.labels)) __builtin_trap();
    } catch (const adiv::DataError&) {
    }
    return 0;
}
