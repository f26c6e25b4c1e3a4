// Table III: Average website loading time in Raptor-tp6-1.
//
// Hero-element load time, 25 loads per subtest (the paper skips the first;
// we have no tab-open effect, so all 25 count), for Chrome and Firefox with
// and without JSKernel. Load-to-load variation comes from per-run seeds
// (network jitter via the synthetic site's server latencies is deterministic,
// so variance here is defense-jitter only; legacy rows are near-constant).
#include <cstdio>

#include "bench/bench_util.h"
#include "defenses/defense.h"
#include "sim/stats.h"
#include "workloads/sites.h"

using namespace jsk;

namespace {

sim::summary run_subtest(const rt::browser_profile& profile, defenses::defense_id defense,
                         const std::string& site_name, int loads)
{
    std::vector<double> hero;
    for (int i = 0; i < loads; ++i) {
        rt::browser b(profile, 4'000 + static_cast<std::uint64_t>(i));
        auto def = defenses::make_defense(defense, 4'000 + static_cast<std::uint64_t>(i));
        def->install(b);
        // Per-load network jitter, as on the paper's ADSL line.
        auto site = workloads::raptor_site(site_name, profile.name);
        sim::rng jitter(9'000 + static_cast<std::uint64_t>(i));
        for (auto& res : site.resources) {
            res.server_latency = jitter.uniform(0, 4 * sim::ms);
        }
        hero.push_back(workloads::load_site(b, site).hero_ms);
    }
    return sim::summarize(hero);
}

}  // namespace

int main()
{
    const int loads = 25;
    const std::vector<std::string> subtests{"amazon", "facebook", "google", "youtube"};

    std::printf("=== Table III: Raptor-tp6-1 hero-element load time (ms), %d loads ===\n\n",
                loads);
    bench::print_row({"subtest", "chrome", "jskernel(C)", "firefox", "jskernel(F)"}, 17);
    bench::print_rule(5, 17);

    bool overhead_small = true;
    for (const auto& name : subtests) {
        const auto chrome = run_subtest(rt::chrome_profile(), defenses::defense_id::legacy,
                                        name, loads);
        const auto chrome_jsk =
            run_subtest(rt::chrome_profile(), defenses::defense_id::jskernel, name, loads);
        const auto firefox = run_subtest(rt::firefox_profile(),
                                         defenses::defense_id::legacy, name, loads);
        const auto firefox_jsk =
            run_subtest(rt::firefox_profile(), defenses::defense_id::jskernel, name, loads);
        bench::print_row({name, bench::fmt_pm(chrome.mean, chrome.stddev),
                          bench::fmt_pm(chrome_jsk.mean, chrome_jsk.stddev),
                          bench::fmt_pm(firefox.mean, firefox.stddev),
                          bench::fmt_pm(firefox_jsk.mean, firefox_jsk.stddev)},
                         17);
        // Paper: differences smaller than the noise / a few percent.
        if (chrome_jsk.mean > chrome.mean * 1.15 || firefox_jsk.mean > firefox.mean * 1.15) {
            overhead_small = false;
        }
    }
    std::printf("\njskernel hero-load overhead stays within 15%% on every subtest: %s "
                "(paper: 2.75%% Chrome / 3.85%% Firefox average)\n",
                overhead_small ? "yes" : "NO");
    return overhead_small ? 0 : 1;
}
