#include "util/contracts.hpp"

#include <cstdio>
#include <cstdlib>

namespace adiv::detail {

void assert_fail(const char* expr, const char* file, int line) {
    std::fprintf(stderr, "adiv internal invariant violated: %s (%s:%d)\n", expr,
                 file, line);
    std::abort();
}

void unreachable_fail(const char* what, const char* file, int line) {
    std::fprintf(stderr, "adiv reached an impossible path: %s (%s:%d)\n", what,
                 file, line);
    std::abort();
}

}  // namespace adiv::detail
