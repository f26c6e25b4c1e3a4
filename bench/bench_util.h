// Shared helpers for the paper-table reproduction binaries: fixed-width table
// formatting. The binaries print their artifact and exit nonzero when its
// shape check fails; host-time measurement lives in perfbench/.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace jsk::bench {

/// Print a row of fixed-width columns.
inline void print_row(const std::vector<std::string>& cells, int width = 14)
{
    for (const auto& cell : cells) std::printf("%-*s", width, cell.c_str());
    std::printf("\n");
}

inline void print_rule(std::size_t columns, int width = 14)
{
    std::printf("%s\n", std::string(columns * static_cast<std::size_t>(width), '-').c_str());
}

inline std::string fmt(double v, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string fmt_pm(double mean, double stddev, int precision = 1)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.*f±%.*f", precision, mean, precision, stddev);
    return buf;
}

}  // namespace jsk::bench
