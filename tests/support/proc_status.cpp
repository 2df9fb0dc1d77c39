#include "support/proc_status.hpp"

#include <fstream>

namespace adiv::test {

long proc_status_kb(const std::string& field) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(field + ":", 0) == 0)
            return std::stol(line.substr(field.size() + 1));
    return -1;
}

}  // namespace adiv::test
