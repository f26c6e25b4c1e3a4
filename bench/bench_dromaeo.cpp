// §V-A1 micro-benchmark: Dromaeo-like suites with and without JSKernel.
//
// Paper numbers: 1.99 % average / 0.30 % median performance drop; the DOM
// attribute test is the worst at 21.15 % because every get/setAttribute
// round-trips through the kernel.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "defenses/defense.h"
#include "workloads/sites.h"

using namespace jsk;

namespace {

double run_once(const std::string& test, bool with_kernel)
{
    rt::browser b(rt::chrome_profile());
    std::unique_ptr<defenses::defense> def;
    if (with_kernel) {
        def = defenses::make_defense(defenses::defense_id::jskernel);
        def->install(b);
    }
    return workloads::run_dromaeo_test(b, test).duration_ms;
}

}  // namespace

int main()
{
    std::printf("=== Dromaeo-like micro-benchmark: JSKernel overhead per test ===\n\n");
    bench::print_row({"test", "baseline(ms)", "jskernel(ms)", "overhead(%)"}, 18);
    bench::print_rule(4, 18);

    std::vector<double> overheads;
    double dom_attr_overhead = 0.0;
    for (const auto& test : workloads::dromaeo_tests()) {
        const double base = run_once(test, false);
        const double kernel = run_once(test, true);
        const double overhead = base > 0 ? (kernel / base - 1.0) * 100.0 : 0.0;
        overheads.push_back(overhead);
        if (test == "dom-attr") dom_attr_overhead = overhead;
        bench::print_row({test, bench::fmt(base, 3), bench::fmt(kernel, 3),
                          bench::fmt(overhead, 2)},
                         18);
    }

    std::vector<double> sorted = overheads;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    double avg = 0.0;
    for (double o : overheads) avg += o;
    avg /= static_cast<double>(overheads.size());

    std::printf("\naverage overhead: %.2f%% (paper: 1.99%%)\n", avg);
    std::printf("median overhead:  %.2f%% (paper: 0.30%%)\n", median);
    std::printf("dom-attr overhead: %.2f%% (paper's worst case: 21.15%%)\n",
                dom_attr_overhead);
    const bool ok = median < 2.0 && dom_attr_overhead > 5.0 && dom_attr_overhead < 60.0;
    std::printf("shape holds (tiny median, DOM-attr dominates): %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
