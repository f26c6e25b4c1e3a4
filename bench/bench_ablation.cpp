// Ablations on the kernel's design decisions (DESIGN.md §4):
//  1. deterministic vs fuzzy prediction — how much security does Listing 3's
//     determinism buy over a fuzzy-time kernel?
//  2. CVE policies on/off — the scheduling core alone already blocks the
//     worker-lifecycle CVEs; the manual policies cover the remaining four.
//  3. interposition-cost sweep — sensitivity of the Dromaeo overhead.
#include <cstdio>

#include "attacks/attacks_impl.h"
#include "bench/bench_util.h"
#include "sim/stats.h"
#include "workloads/sites.h"

using namespace jsk;

namespace {

/// Script-parsing attack accuracy with a custom-configured kernel.
double parsing_accuracy(kernel::kernel_options opts, int trials)
{
    std::vector<double> small;
    std::vector<double> big_sample;
    for (int t = 0; t < trials; ++t) {
        for (const bool big : {false, true}) {
            rt::browser b(rt::chrome_profile(), 3'000 + static_cast<std::uint64_t>(t));
            opts.fuzz_seed = 100 + static_cast<std::uint64_t>(t) * 2 + big;
            auto def = defenses::make_jskernel_defense(opts);
            def->install(b);
            attacks::script_parsing atk;
            (big ? big_sample : small)
                .push_back(atk.measure_size(b, big ? 5'000'000 : 1'000'000));
        }
    }
    return sim::classification_accuracy(small, big_sample);
}

double dom_attr_overhead(const kernel::kernel_options& opts)
{
    rt::browser base(rt::chrome_profile());
    const double t_base = workloads::run_dromaeo_test(base, "dom-attr").duration_ms;
    rt::browser with(rt::chrome_profile());
    auto def = defenses::make_jskernel_defense(opts);
    def->install(with);
    const double t_kernel = workloads::run_dromaeo_test(with, "dom-attr").duration_ms;
    return t_base > 0 ? (t_kernel / t_base - 1.0) * 100.0 : 0.0;
}

}  // namespace

int main()
{
    std::printf("=== Ablation 1: prediction strategy vs attack accuracy ===\n\n");
    bench::print_row({"prediction", "parsing-accuracy"}, 20);
    bench::print_rule(2, 20);
    const kernel::kernel_options det;
    const double det_acc = parsing_accuracy(det, 7);
    bench::print_row({"deterministic", bench::fmt(det_acc, 2)}, 20);
    kernel::kernel_options fuzzy;
    fuzzy.fuzzy_prediction = true;
    const double fuzzy_acc = parsing_accuracy(fuzzy, 7);
    bench::print_row({"fuzzy (ablation)", bench::fmt(fuzzy_acc, 2)}, 20);
    std::printf("(deterministic must sit at chance level 0.5; fuzzy may drift)\n");

    std::printf("\n=== Ablation 2: CVE policies on/off ===\n\n");
    bench::print_row({"config", "CVEs-triggered/12"}, 22);
    bench::print_rule(2, 22);
    kernel::kernel_options with_policies;
    const int with = attacks::run_cve_suite_with_kernel(with_policies);
    bench::print_row({"scheduler+policies", std::to_string(with)}, 22);
    kernel::kernel_options without_policies;
    without_policies.enable_cve_policies = false;
    const int without = attacks::run_cve_suite_with_kernel(without_policies);
    bench::print_row({"scheduler-only", std::to_string(without)}, 22);
    std::printf("(the termination protocol alone blocks the worker-lifecycle CVEs;\n"
                " the four leak/storage CVEs need their manual policies)\n");

    std::printf("\n=== Ablation 3: interposition cost vs worst-case (dom-attr) overhead "
                "===\n\n");
    bench::print_row({"interpose(ns)", "dom-attr-overhead(%)"}, 22);
    bench::print_rule(2, 22);
    for (const long cost : {0L, 50L, 200L, 1000L}) {
        kernel::kernel_options opts;
        opts.interpose_cost = cost;
        bench::print_row({std::to_string(cost), bench::fmt(dom_attr_overhead(opts), 2)}, 22);
    }

    const bool ok = det_acc <= 0.55 && with == 0 && without > 0 && without <= 6;
    std::printf("\nablation expectations hold: %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
