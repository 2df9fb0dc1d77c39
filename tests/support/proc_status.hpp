// One field of /proc/self/status, for tests that bound what a workload
// leaves behind (threads, mapped or resident memory).
#pragma once

#include <string>

namespace adiv::test {

/// The `<field>:` line of /proc/self/status, in kB (or the bare count for
/// Threads); -1 when absent.
long proc_status_kb(const std::string& field);

}  // namespace adiv::test
