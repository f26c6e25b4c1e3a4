// Figure 2: Script Parsing Attack with Asynchronous Clock.
//
// For each defense, loads a cross-origin script of 1..10 MB and reports the
// parsing time the *adversary* measures with the setTimeout implicit clock
// (tick count converted to ms at the nominal 4 ms nested-timer tick). The
// paper's shape: every defense except JSKernel produces a series increasing
// with file size; JSKernel is flat.
#include <cstdio>

#include "attacks/attacks_impl.h"
#include "bench/bench_util.h"

using namespace jsk;

namespace {

double reported_ms(defenses::defense_id id, std::size_t bytes, std::uint64_t seed)
{
    rt::browser b(rt::chrome_profile(), seed);
    auto def = defenses::make_defense(id, seed);
    def->install(b);
    attacks::script_parsing atk;
    const double ticks = atk.measure_size(b, bytes);
    return ticks * 4.0;  // adversary's calibrated tick length (nested clamp)
}

}  // namespace

int main()
{
    std::printf("=== Figure 2: reported script parsing time (ms) vs size (MB) ===\n\n");
    std::vector<std::string> header{"size(MB)"};
    for (const auto id : defenses::all_defense_ids()) {
        header.push_back(defenses::to_string(id));
    }
    bench::print_row(header);
    bench::print_rule(header.size());

    bool jskernel_flat = true;
    double jskernel_first = -1.0;
    for (int mb = 1; mb <= 10; ++mb) {
        std::vector<std::string> row{std::to_string(mb)};
        for (const auto id : defenses::all_defense_ids()) {
            const double ms =
                reported_ms(id, static_cast<std::size_t>(mb) * 1'000'000, 77 + mb);
            row.push_back(bench::fmt(ms, 1));
            if (id == defenses::defense_id::jskernel) {
                if (jskernel_first < 0) jskernel_first = ms;
                else if (ms != jskernel_first) jskernel_flat = false;
            }
        }
        bench::print_row(row);
    }
    std::printf("\njskernel series flat across sizes: %s\n",
                jskernel_flat ? "yes (paper: constant ~10 ms)" : "NO");
    return jskernel_flat ? 0 : 1;
}
