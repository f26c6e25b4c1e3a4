// Table II: Averaged measured time of different targets under varied attacks.
//
//  * SVG filtering: averaged measured image load (frame) time for a low- vs
//    high-resolution cross-origin image under an erode filter, 25 runs each.
//  * Loopscan: maximum measured event interval while a google- vs
//    youtube-like victim shares the event loop.
//
// Rows: the three legacy browser profiles, then each defense (on the Chrome
// profile), mirroring the paper's row set.
#include <cstdio>

#include "attacks/attacks_impl.h"
#include "bench/bench_util.h"
#include "sim/stats.h"

using namespace jsk;

namespace {

struct row_config {
    std::string label;
    rt::browser_profile profile;
    defenses::defense_id defense;
};

double avg_svg(const row_config& row, std::uint32_t dim, int runs)
{
    std::vector<double> xs;
    for (int r = 0; r < runs; ++r) {
        rt::browser b(row.profile, 100 + static_cast<std::uint64_t>(r));
        auto def = defenses::make_defense(row.defense, 500 + static_cast<std::uint64_t>(r));
        def->install(b);
        attacks::svg_filtering atk;
        xs.push_back(atk.measure_resolution(b, dim));
    }
    return sim::summarize(xs).mean;
}

double avg_loopscan(const row_config& row, bool youtube, int runs)
{
    std::vector<double> xs;
    for (int r = 0; r < runs; ++r) {
        rt::browser b(row.profile, 200 + static_cast<std::uint64_t>(r));
        auto def = defenses::make_defense(row.defense, 700 + static_cast<std::uint64_t>(r));
        def->install(b);
        attacks::loopscan atk;
        const auto victim = youtube ? workloads::youtube_event_profile()
                                    : workloads::google_event_profile();
        xs.push_back(atk.max_event_interval(b, victim));
    }
    return sim::summarize(xs).mean;
}

}  // namespace

int main()
{
    const int runs = 25;  // as in the paper
    std::vector<row_config> rows{
        {"chrome", rt::chrome_profile(), defenses::defense_id::legacy},
        {"firefox", rt::firefox_profile(), defenses::defense_id::legacy},
        {"edge", rt::edge_profile(), defenses::defense_id::legacy},
        {"fuzzyfox", rt::firefox_profile(), defenses::defense_id::fuzzyfox},
        {"tor-browser", rt::firefox_profile(), defenses::defense_id::tor_browser},
        {"chrome-zero", rt::chrome_profile(), defenses::defense_id::chrome_zero},
        {"jskernel", rt::chrome_profile(), defenses::defense_id::jskernel},
    };

    std::printf("=== Table II: SVG filtering & loopscan, averaged over %d runs ===\n\n",
                runs);
    bench::print_row({"defense", "svg-low(ms)", "svg-high(ms)", "loop-google(ms)",
                      "loop-youtube(ms)"},
                     17);
    bench::print_rule(5, 17);

    bool jskernel_constant = true;
    for (const auto& row : rows) {
        const double lo = avg_svg(row, 64, runs);
        const double hi = avg_svg(row, 512, runs);
        const double google = avg_loopscan(row, false, runs);
        const double youtube = avg_loopscan(row, true, runs);
        bench::print_row({row.label, bench::fmt(lo), bench::fmt(hi), bench::fmt(google),
                          bench::fmt(youtube)},
                         17);
        if (row.defense == defenses::defense_id::jskernel) {
            jskernel_constant = (lo == hi) && (google == youtube);
        }
    }
    std::printf("\njskernel columns constant across secrets: %s (paper: 10/10 ms SVG, "
                "1/1 ms loopscan)\n",
                jskernel_constant ? "yes" : "NO");
    return jskernel_constant ? 0 : 1;
}
