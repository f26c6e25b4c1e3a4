// Figure 3: CDF of loading time of Top-500 (synthetic) websites under the
// eight browser configurations the paper plots.
//
// Prints the CDF at decile points per configuration plus summary statistics.
// Paper shape: JSKernel curves hug their base browsers (minimal overhead);
// Chrome Zero is visibly slower than Chrome+JSKernel; Tor and Fuzzyfox are
// the slowest; DeterFox tracks Firefox.
#include <cstdio>

#include "bench/bench_util.h"
#include "defenses/defense.h"
#include "sim/stats.h"
#include "workloads/sites.h"

using namespace jsk;

namespace {

struct config_row {
    std::string label;
    rt::browser_profile profile;
    defenses::defense_id defense;
};

std::vector<double> load_all(const config_row& cfg, int sites, std::uint64_t seed)
{
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(sites));
    for (int rank = 0; rank < sites; ++rank) {
        rt::browser b(cfg.profile, seed + static_cast<std::uint64_t>(rank));
        auto def = defenses::make_defense(cfg.defense, seed + static_cast<std::uint64_t>(rank));
        def->install(b);
        const auto site =
            workloads::make_synthetic_site(static_cast<std::uint64_t>(rank), 42);
        times.push_back(workloads::load_site(b, site).onload_ms);
    }
    return times;
}

}  // namespace

int main()
{
    const int sites = 500;
    const std::vector<config_row> configs{
        {"chrome", rt::chrome_profile(), defenses::defense_id::legacy},
        {"chrome+jskernel", rt::chrome_profile(), defenses::defense_id::jskernel},
        {"chrome+chromezero", rt::chrome_profile(), defenses::defense_id::chrome_zero},
        {"firefox", rt::firefox_profile(), defenses::defense_id::legacy},
        {"firefox+jskernel", rt::firefox_profile(), defenses::defense_id::jskernel},
        {"deterfox", rt::firefox_profile(), defenses::defense_id::deterfox},
        {"tor-browser", rt::firefox_profile(), defenses::defense_id::tor_browser},
        {"fuzzyfox", rt::firefox_profile(), defenses::defense_id::fuzzyfox},
    };

    std::printf("=== Figure 3: load-time CDF, %d synthetic Alexa-like sites ===\n\n", sites);
    std::vector<std::string> header{"config"};
    for (int pct = 10; pct <= 90; pct += 20) {
        header.push_back("p" + std::to_string(pct) + "(ms)");
    }
    header.push_back("mean(ms)");
    bench::print_row(header, 19);
    bench::print_rule(header.size(), 19);

    double chrome_mean = 0.0;
    double chrome_jsk_mean = 0.0;
    double chrome_cz_mean = 0.0;
    for (const auto& cfg : configs) {
        const auto times = load_all(cfg, sites, 9'000);
        std::vector<std::string> row{cfg.label};
        for (int pct = 10; pct <= 90; pct += 20) {
            row.push_back(bench::fmt(sim::percentile(times, pct), 1));
        }
        const double mean = sim::summarize(times).mean;
        row.push_back(bench::fmt(mean, 1));
        bench::print_row(row, 19);
        if (cfg.label == "chrome") chrome_mean = mean;
        if (cfg.label == "chrome+jskernel") chrome_jsk_mean = mean;
        if (cfg.label == "chrome+chromezero") chrome_cz_mean = mean;
    }

    const double jsk_overhead = (chrome_jsk_mean / chrome_mean - 1.0) * 100.0;
    const double cz_overhead = (chrome_cz_mean / chrome_mean - 1.0) * 100.0;
    std::printf("\nchrome+jskernel overhead vs chrome: %.2f%% (paper: non-observable)\n",
                jsk_overhead);
    std::printf("chrome+chromezero overhead vs chrome: %.2f%% (paper: more than JSKernel)\n",
                cz_overhead);
    const bool ok = jsk_overhead < cz_overhead && jsk_overhead < 10.0;
    std::printf("shape holds (jskernel < chromezero, jskernel small): %s\n",
                ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
