// §V-B2 semi-automated compatibility test: visit each of 100 synthetic sites
// with and without JSKernel, serialize the DOM, compare via cosine
// similarity. Paper: 90 % of sites score above 99 %; the rest differ only
// through dynamic content (ads), which differ between *any* two visits.
#include <cstdio>

#include "bench/bench_util.h"
#include "defenses/defense.h"
#include "sim/stats.h"
#include "workloads/sites.h"

using namespace jsk;

namespace {

std::unordered_map<std::string, double> visit(std::uint64_t site, bool with_kernel,
                                              std::uint64_t visit_seed)
{
    rt::browser b(rt::chrome_profile(), visit_seed);
    std::unique_ptr<defenses::defense> def;
    if (with_kernel) {
        def = defenses::make_defense(defenses::defense_id::jskernel);
        def->install(b);
    }
    // ~10% of sites carry dynamic ad slots whose URLs differ per visit.
    const bool dynamic = site % 10 == 0;
    return workloads::build_compat_page(b, 1'000 + site * 17 + (dynamic ? visit_seed : 0),
                                        dynamic);
}

}  // namespace

int main()
{
    const int sites = 100;
    int above_99 = 0;
    int dynamic_flagged = 0;
    double min_sim = 1.0;
    for (int site = 0; site < sites; ++site) {
        const auto plain = visit(static_cast<std::uint64_t>(site), false, 1);
        const auto kernel = visit(static_cast<std::uint64_t>(site), true, 2);
        const double similarity = sim::cosine_similarity(plain, kernel);
        min_sim = std::min(min_sim, similarity);
        if (similarity > 0.99) {
            ++above_99;
        } else {
            // Manual-check stand-in: a plain/plain revisit is below the
            // threshold too — the delta is dynamic content, not JSKernel
            // (the paper's "less than 2% difference" control).
            const auto replain = visit(static_cast<std::uint64_t>(site), false, 3);
            const double control = sim::cosine_similarity(plain, replain);
            if (control < 0.99) ++dynamic_flagged;
        }
    }
    std::printf("=== Compatibility: DOM cosine similarity over %d sites ===\n\n", sites);
    std::printf("sites with similarity > 99%%: %d/%d (paper: 90%%)\n", above_99, sites);
    std::printf("below-threshold sites explained by dynamic content: %d/%d\n",
                dynamic_flagged, sites - above_99);
    std::printf("minimum similarity: %.4f\n", min_sim);
    const bool ok = above_99 >= 85 && dynamic_flagged == sites - above_99;
    std::printf("shape holds: %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
