// Contract macros: the machine-checked invariants behind the library's
// correctness claims.
//
// Two tiers, by cost (preconditions at API boundaries are util/error.hpp's
// require()/require_data(), which throw and are always on):
//
//   ADIV_ASSERT(expr)          Internal invariant; a failure is a library
//                              bug, never caller error. Prints and aborts.
//                              Compiled in when ADIV_CHECKED is nonzero (the
//                              default, and the ADIV_CHECKED CMake option);
//                              with -DADIV_CHECKED=0 the expression is
//                              type-checked but never evaluated, so hot-path
//                              checks (per-window bounds, grid-slot
//                              addressing, frame accounting) cost nothing.
//
//   ADIV_UNREACHABLE(what)     Marks a path the control flow can never
//                              reach (exhaustive switches over enums).
//                              Always aborts — an impossible path taken is
//                              memory-unsafe to continue from in any build.
#pragma once

namespace adiv::detail {

[[noreturn]] void assert_fail(const char* expr, const char* file, int line);
[[noreturn]] void unreachable_fail(const char* what, const char* file, int line);

}  // namespace adiv::detail

#ifndef ADIV_CHECKED
#define ADIV_CHECKED 1
#endif

#if ADIV_CHECKED
#define ADIV_ASSERT(expr) \
    ((expr) ? void(0) : ::adiv::detail::assert_fail(#expr, __FILE__, __LINE__))
#else
// Unevaluated but still parsed, so a checked build cannot rot in an
// unchecked one.
#define ADIV_ASSERT(expr) ((void)sizeof((expr) ? 1 : 0))
#endif

#define ADIV_UNREACHABLE(what) \
    ::adiv::detail::unreachable_fail(what, __FILE__, __LINE__)
