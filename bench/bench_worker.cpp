// §V-A1 worker benchmark (pmav.eu-style): create 16 workers, measure the
// time until every worker script ran; 5 repeats, with and without JSKernel.
// Paper: ~0.9 % average overhead.
#include <cstdio>

#include "bench/bench_util.h"
#include "defenses/defense.h"
#include "sim/stats.h"
#include "workloads/sites.h"

using namespace jsk;

namespace {

sim::summary run_bench(bool with_kernel, int repeats)
{
    std::vector<double> times;
    for (int r = 0; r < repeats; ++r) {
        rt::browser b(rt::chrome_profile(), 50 + static_cast<std::uint64_t>(r));
        std::unique_ptr<defenses::defense> def;
        if (with_kernel) {
            def = defenses::make_defense(defenses::defense_id::jskernel);
            def->install(b);
        }
        times.push_back(workloads::run_worker_bench(b, 16));
    }
    return sim::summarize(times);
}

}  // namespace

int main()
{
    const int repeats = 5;
    std::printf("=== Worker benchmark: 16 workers, %d repeats ===\n\n", repeats);
    const auto base = run_bench(false, repeats);
    const auto kernel = run_bench(true, repeats);
    bench::print_row({"config", "mean(ms)", "stddev"}, 16);
    bench::print_rule(3, 16);
    bench::print_row({"chrome", bench::fmt(base.mean), bench::fmt(base.stddev)}, 16);
    bench::print_row({"chrome+jskernel", bench::fmt(kernel.mean), bench::fmt(kernel.stddev)},
                     16);
    const double overhead = (kernel.mean / base.mean - 1.0) * 100.0;
    std::printf("\noverhead: %.2f%% (paper: ~0.9%%)\n", overhead);
    const bool ok = overhead < 15.0;
    std::printf("shape holds (small worker-creation overhead): %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
