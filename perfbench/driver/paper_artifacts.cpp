#include "paper_artifacts.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attacks_impl.h"
#include "defenses/defense.h"
#include "kernel/kernel.h"
#include "runtime/browser.h"
#include "runtime/profile.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workloads/sites.h"

namespace perfbench::paper {

namespace {

namespace rt = jsk::rt;
namespace sim = jsk::sim;
namespace defenses = jsk::defenses;
namespace workloads = jsk::workloads;
using defenses::defense_id;

void put(std::string& out, const std::string& label, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.17g\n", v);
    out += label;
    out += buf;
}

/// Install `id` on `b`; `def` keeps the defense alive for the trial.
void install(rt::browser& b, std::unique_ptr<defenses::defense>& def, defense_id id,
             std::uint64_t seed)
{
    def = defenses::make_defense(id, seed);
    def->install(b);
}

}  // namespace

artifact fig2()
{
    artifact a;
    bool flat = true;
    double first = -1;
    for (int mb = 1; mb <= 10; ++mb) {
        for (const defense_id id : defenses::all_defense_ids()) {
            const std::uint64_t seed = 77 + static_cast<std::uint64_t>(mb);
            rt::browser b(rt::chrome_profile(), seed);
            std::unique_ptr<defenses::defense> def;
            install(b, def, id, seed);
            jsk::attacks::script_parsing atk;
            const double ms = atk.measure_size(b, static_cast<std::size_t>(mb) * 1'000'000) * 4.0;
            put(a.output, std::to_string(mb) + "MB/" + defenses::to_string(id), ms);
            if (id == defense_id::jskernel) {
                if (first < 0) first = ms;
                else if (ms != first) flat = false;
            }
        }
    }
    a.shape_holds = flat;
    return a;
}

artifact table2()
{
    struct row {
        const char* label;
        rt::browser_profile profile;
        defense_id defense;
    };
    const std::vector<row> rows{
        {"chrome", rt::chrome_profile(), defense_id::legacy},
        {"firefox", rt::firefox_profile(), defense_id::legacy},
        {"edge", rt::edge_profile(), defense_id::legacy},
        {"fuzzyfox", rt::firefox_profile(), defense_id::fuzzyfox},
        {"tor-browser", rt::firefox_profile(), defense_id::tor_browser},
        {"chrome-zero", rt::chrome_profile(), defense_id::chrome_zero},
        {"jskernel", rt::chrome_profile(), defense_id::jskernel},
    };
    constexpr int runs = 25;
    const auto svg = [&](const row& r, std::uint32_t dim) {
        std::vector<double> xs;
        for (int i = 0; i < runs; ++i) {
            rt::browser b(r.profile, 100 + static_cast<std::uint64_t>(i));
            std::unique_ptr<defenses::defense> def;
            install(b, def, r.defense, 500 + static_cast<std::uint64_t>(i));
            jsk::attacks::svg_filtering atk;
            xs.push_back(atk.measure_resolution(b, dim));
        }
        return sim::summarize(xs).mean;
    };
    const auto loopscan = [&](const row& r, bool youtube) {
        std::vector<double> xs;
        for (int i = 0; i < runs; ++i) {
            rt::browser b(r.profile, 200 + static_cast<std::uint64_t>(i));
            std::unique_ptr<defenses::defense> def;
            install(b, def, r.defense, 700 + static_cast<std::uint64_t>(i));
            jsk::attacks::loopscan atk;
            const auto victim = youtube ? workloads::youtube_event_profile()
                                        : workloads::google_event_profile();
            xs.push_back(atk.max_event_interval(b, victim));
        }
        return sim::summarize(xs).mean;
    };
    artifact a;
    for (const row& r : rows) {
        const double lo = svg(r, 64);
        const double hi = svg(r, 512);
        const double google = loopscan(r, false);
        const double youtube = loopscan(r, true);
        put(a.output, std::string(r.label) + "/svg_low", lo);
        put(a.output, std::string(r.label) + "/svg_high", hi);
        put(a.output, std::string(r.label) + "/loopscan_google", google);
        put(a.output, std::string(r.label) + "/loopscan_youtube", youtube);
        if (r.defense == defense_id::jskernel) a.shape_holds = lo == hi && google == youtube;
    }
    return a;
}

artifact fig3()
{
    struct config {
        const char* label;
        rt::browser_profile profile;
        defense_id defense;
    };
    const std::vector<config> configs{
        {"chrome", rt::chrome_profile(), defense_id::legacy},
        {"chrome+jskernel", rt::chrome_profile(), defense_id::jskernel},
        {"chrome+chromezero", rt::chrome_profile(), defense_id::chrome_zero},
        {"firefox", rt::firefox_profile(), defense_id::legacy},
        {"firefox+jskernel", rt::firefox_profile(), defense_id::jskernel},
        {"deterfox", rt::firefox_profile(), defense_id::deterfox},
        {"tor-browser", rt::firefox_profile(), defense_id::tor_browser},
        {"fuzzyfox", rt::firefox_profile(), defense_id::fuzzyfox},
    };
    constexpr int sites = 500;
    constexpr std::uint64_t seed = 9'000;
    artifact a;
    std::unordered_map<std::string, double> means;
    for (const config& c : configs) {
        std::vector<double> times;
        for (int rank = 0; rank < sites; ++rank) {
            const std::uint64_t s = seed + static_cast<std::uint64_t>(rank);
            rt::browser b(c.profile, s);
            std::unique_ptr<defenses::defense> def;
            install(b, def, c.defense, s);
            const auto site =
                workloads::make_synthetic_site(static_cast<std::uint64_t>(rank), 42);
            times.push_back(workloads::load_site(b, site).onload_ms);
        }
        for (int pct = 10; pct <= 90; pct += 20) {
            put(a.output, std::string(c.label) + "/p" + std::to_string(pct),
                sim::percentile(times, pct));
        }
        means[c.label] = sim::summarize(times).mean;
        put(a.output, std::string(c.label) + "/mean", means[c.label]);
    }
    const double jsk = (means["chrome+jskernel"] / means["chrome"] - 1.0) * 100.0;
    const double cz = (means["chrome+chromezero"] / means["chrome"] - 1.0) * 100.0;
    a.shape_holds = jsk < cz && jsk < 10.0;
    return a;
}

artifact table3()
{
    constexpr int loads = 25;
    const auto subtest = [](const rt::browser_profile& profile, defense_id defense,
                            const std::string& name) {
        std::vector<double> hero;
        for (int i = 0; i < loads; ++i) {
            const std::uint64_t s = 4'000 + static_cast<std::uint64_t>(i);
            rt::browser b(profile, s);
            std::unique_ptr<defenses::defense> def;
            install(b, def, defense, s);
            auto site = workloads::raptor_site(name, profile.name);
            sim::rng jitter(9'000 + static_cast<std::uint64_t>(i));
            for (auto& res : site.resources) res.server_latency = jitter.uniform(0, 4 * sim::ms);
            hero.push_back(workloads::load_site(b, site).hero_ms);
        }
        return sim::summarize(hero);
    };
    artifact a;
    a.shape_holds = true;
    for (const std::string name : {"amazon", "facebook", "google", "youtube"}) {
        const auto chrome = subtest(rt::chrome_profile(), defense_id::legacy, name);
        const auto chrome_jsk = subtest(rt::chrome_profile(), defense_id::jskernel, name);
        const auto firefox = subtest(rt::firefox_profile(), defense_id::legacy, name);
        const auto firefox_jsk = subtest(rt::firefox_profile(), defense_id::jskernel, name);
        for (const auto& [label, s] :
             {std::pair{"chrome", chrome}, std::pair{"chrome+jsk", chrome_jsk},
              std::pair{"firefox", firefox}, std::pair{"firefox+jsk", firefox_jsk}}) {
            put(a.output, name + "/" + label + "/mean", s.mean);
            put(a.output, name + "/" + label + "/stddev", s.stddev);
        }
        if (chrome_jsk.mean > chrome.mean * 1.15 || firefox_jsk.mean > firefox.mean * 1.15) {
            a.shape_holds = false;
        }
    }
    return a;
}

artifact dromaeo()
{
    const auto run_once = [](const std::string& test, bool with_kernel) {
        rt::browser b(rt::chrome_profile());
        std::unique_ptr<defenses::defense> def;
        if (with_kernel) install(b, def, defense_id::jskernel, 7);
        return workloads::run_dromaeo_test(b, test).duration_ms;
    };
    artifact a;
    std::vector<double> overheads;
    double dom_attr = 0;
    for (const auto& test : workloads::dromaeo_tests()) {
        const double base = run_once(test, false);
        const double kernel = run_once(test, true);
        const double overhead = base > 0 ? (kernel / base - 1.0) * 100.0 : 0.0;
        overheads.push_back(overhead);
        if (test == "dom-attr") dom_attr = overhead;
        put(a.output, test + "/base", base);
        put(a.output, test + "/jskernel", kernel);
    }
    std::sort(overheads.begin(), overheads.end());
    const double med = overheads[overheads.size() / 2];
    a.shape_holds = med < 2.0 && dom_attr > 5.0 && dom_attr < 60.0;
    return a;
}

artifact worker()
{
    const auto run = [](bool with_kernel) {
        std::vector<double> times;
        for (int r = 0; r < 5; ++r) {
            rt::browser b(rt::chrome_profile(), 50 + static_cast<std::uint64_t>(r));
            std::unique_ptr<defenses::defense> def;
            if (with_kernel) install(b, def, defense_id::jskernel, 7);
            times.push_back(workloads::run_worker_bench(b, 16));
        }
        return sim::summarize(times);
    };
    const auto base = run(false);
    const auto kernel = run(true);
    artifact a;
    put(a.output, "chrome/mean", base.mean);
    put(a.output, "chrome/stddev", base.stddev);
    put(a.output, "chrome+jskernel/mean", kernel.mean);
    put(a.output, "chrome+jskernel/stddev", kernel.stddev);
    a.shape_holds = (kernel.mean / base.mean - 1.0) * 100.0 < 15.0;
    return a;
}

artifact compat()
{
    const auto visit = [](std::uint64_t site, bool with_kernel, std::uint64_t visit_seed) {
        rt::browser b(rt::chrome_profile(), visit_seed);
        std::unique_ptr<defenses::defense> def;
        if (with_kernel) install(b, def, defense_id::jskernel, 7);
        const bool dynamic = site % 10 == 0;
        return workloads::build_compat_page(b, 1'000 + site * 17 + (dynamic ? visit_seed : 0),
                                            dynamic);
    };
    constexpr int sites = 100;
    int above_99 = 0;
    int dynamic_flagged = 0;
    artifact a;
    for (int site = 0; site < sites; ++site) {
        const auto s = static_cast<std::uint64_t>(site);
        const auto plain = visit(s, false, 1);
        const double similarity = sim::cosine_similarity(plain, visit(s, true, 2));
        put(a.output, "site" + std::to_string(site), similarity);
        if (similarity > 0.99) {
            ++above_99;
        } else if (sim::cosine_similarity(plain, visit(s, false, 3)) < 0.99) {
            ++dynamic_flagged;
        }
    }
    a.shape_holds = above_99 >= 85 && dynamic_flagged == sites - above_99;
    return a;
}

namespace {

// The 20 synthetic CodePen-style apps of bench_api_compat: each computes one
// user-observable metric.
struct app {
    std::string name;
    bool time_related;
    std::function<double(rt::browser&)> run;
};

app spinner_app(std::string name)
{
    const std::string url = "https://cdn.example/" + name;
    return {std::move(name), true, [url](rt::browser& b) {
                b.net().serve(rt::resource{url, "https://cdn.example", rt::resource_kind::data,
                                           120'000, 0, 0, 0});
                auto st = std::make_shared<std::pair<long, bool>>(0, false);
                b.main().post_task(0, [&b, st, url] {
                    auto tick = std::make_shared<std::function<void()>>();
                    *tick = [&b, st, tick] {
                        if (st->second) return;
                        ++st->first;
                        b.main().apis().set_timeout([tick] { (*tick)(); }, 5 * sim::ms);
                    };
                    b.main().apis().set_timeout([tick] { (*tick)(); }, 5 * sim::ms);
                    b.main().apis().fetch(
                        url, {}, [st](const rt::fetch_result&) { st->second = true; },
                        [st](const rt::fetch_result&) { st->second = true; });
                });
                b.run_until(30 * sim::sec);
                return st->first > 0 ? 1.0 : 0.0;
            }};
}

app cadence_app(std::string name, int steps, sim::time_ns interval)
{
    return {std::move(name), true, [steps, interval](rt::browser& b) {
                auto done_at = std::make_shared<double>(0.0);
                b.main().post_task(0, [&b, done_at, steps, interval] {
                    auto remaining = std::make_shared<int>(steps);
                    auto tick = std::make_shared<std::function<void()>>();
                    *tick = [&b, done_at, remaining, interval, tick] {
                        if (--*remaining <= 0) {
                            *done_at = b.main().now_ms_raw();
                            return;
                        }
                        b.main().apis().set_timeout([tick] { (*tick)(); }, interval);
                    };
                    b.main().apis().set_timeout([tick] { (*tick)(); }, interval);
                });
                b.run_until(60 * sim::sec);
                return *done_at;
            }};
}

double elapsed_clock_app(rt::browser& b, bool performance, sim::time_ns busy)
{
    auto out = std::make_shared<double>(0.0);
    b.main().post_task(0, [&b, out, performance, busy] {
        const auto now = [&b, performance] {
            return performance ? b.main().apis().performance_now() : b.main().apis().date_now();
        };
        const double t0 = now();
        b.main().consume(busy);
        *out = now() - t0;
    });
    b.run();
    return *out;
}

std::vector<app> make_apps()
{
    std::vector<app> apps;
    apps.push_back({"stopwatch", true,
                    [](rt::browser& b) { return elapsed_clock_app(b, true, 50 * sim::ms); }});
    apps.push_back({"fps-meter", true, [](rt::browser& b) {
                        auto st = std::make_shared<std::pair<double, int>>(-1.0, 0);
                        b.main().post_task(0, [&b, st] {
                            auto frame = std::make_shared<std::function<void(double)>>();
                            *frame = [&b, st, frame](double ts) {
                                if (st->first < 0) st->first = ts;
                                ++st->second;
                                if (ts - st->first < 500.0 && st->second < 200) {
                                    b.main().apis().request_animation_frame(
                                        [frame](double t) { (*frame)(t); });
                                }
                            };
                            b.main().apis().request_animation_frame(
                                [frame](double t) { (*frame)(t); });
                        });
                        b.run_until(30 * sim::sec);
                        return static_cast<double>(st->second);
                    }});
    apps.push_back({"progress-reader", true, [](rt::browser& b) {
                        auto out = std::make_shared<double>(0.0);
                        auto target = std::make_shared<rt::element>("div");
                        b.main().post_task(0, [&b, out, target] {
                            b.painter().start_animation(target, 60);
                            b.main().apis().set_timeout(
                                [&b, out, target] {
                                    *out = std::stod(b.main().apis().get_attribute(
                                        target, "animation-progress"));
                                },
                                500 * sim::ms);
                        });
                        b.run_until(30 * sim::sec);
                        return *out;
                    }});
    apps.push_back({"clock-widget", true,
                    [](rt::browser& b) { return elapsed_clock_app(b, false, 200 * sim::ms); }});
    for (const char* name : {"gallery-spinner", "lazy-loader", "skeleton-screen", "ad-refresher",
                             "toast-on-load", "chat-presence", "map-tiles"}) {
        apps.push_back(spinner_app(name));
    }
    apps.push_back(cadence_app("metronome", 20, 10 * sim::ms));
    apps.push_back(cadence_app("typewriter", 15, 20 * sim::ms));
    apps.push_back(cadence_app("carousel", 20, 10 * sim::ms));
    apps.push_back(cadence_app("autosave", 8, 25 * sim::ms));
    apps.push_back(cadence_app("spinner-rpm", 24, 15 * sim::ms));
    apps.push_back(cadence_app("game-loop", 40, 8 * sim::ms));
    apps.push_back(cadence_app("audio-meter", 30, 12 * sim::ms));
    apps.push_back(cadence_app("notification-queue", 10, 30 * sim::ms));
    apps.push_back({"worker-echo", false, [](rt::browser& b) {
                        b.register_worker_script("echo.js", [](rt::context& ctx) {
                            ctx.apis().set_self_onmessage([&ctx](const rt::message_event& e) {
                                ctx.apis().post_message_to_parent(e.data, {});
                            });
                        });
                        auto out = std::make_shared<double>(0.0);
                        b.main().post_task(0, [&b, out] {
                            auto w = b.main().apis().create_worker("echo.js");
                            w->set_onmessage(
                                [out](const rt::message_event& e) { *out = e.data.as_number(); });
                            w->post_message(rt::js_value{7.0});
                        });
                        b.run_until(30 * sim::sec);
                        return *out;
                    }});
    return apps;
}

}  // namespace

artifact api_compat()
{
    const auto apps = make_apps();
    const auto run_app = [](const app& ap, defense_id id) {
        double acc = 0.0;
        for (std::uint64_t seed = 5; seed < 8; ++seed) {
            rt::browser b(rt::firefox_profile(), seed);
            std::unique_ptr<defenses::defense> def;
            install(b, def, id, seed);
            acc += ap.run(b);
        }
        return acc / 3.0;
    };
    const std::vector<defense_id> columns{defense_id::fuzzyfox, defense_id::deterfox,
                                          defense_id::jskernel};
    std::vector<int> diffs(columns.size(), 0);
    int jskernel_nontime = 0;
    artifact a;
    for (const app& ap : apps) {
        const double base = run_app(ap, defense_id::legacy);
        put(a.output, ap.name + "/firefox", base);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double v = run_app(ap, columns[c]);
            put(a.output, ap.name + "/" + defenses::to_string(columns[c]), v);
            const double denom = std::abs(base) > 1e-9 ? std::abs(base) : 1.0;
            if (std::abs(v - base) / denom > 0.10) {
                ++diffs[c];
                if (columns[c] == defense_id::jskernel && !ap.time_related) ++jskernel_nontime;
            }
        }
    }
    a.shape_holds = diffs[2] < diffs[1] && diffs[1] < diffs[0] && jskernel_nontime == 0 &&
                    diffs[2] <= 5;
    return a;
}

artifact ablation()
{
    const auto parsing_accuracy = [](jsk::kernel::kernel_options opts, int trials) {
        std::vector<double> small;
        std::vector<double> big_sample;
        for (int t = 0; t < trials; ++t) {
            for (const bool big : {false, true}) {
                rt::browser b(rt::chrome_profile(), 3'000 + static_cast<std::uint64_t>(t));
                opts.fuzz_seed = 100 + static_cast<std::uint64_t>(t) * 2 + big;
                auto def = defenses::make_jskernel_defense(opts);
                def->install(b);
                jsk::attacks::script_parsing atk;
                (big ? big_sample : small)
                    .push_back(atk.measure_size(b, big ? 5'000'000 : 1'000'000));
            }
        }
        return sim::classification_accuracy(small, big_sample);
    };
    const auto dom_attr_overhead = [](const jsk::kernel::kernel_options& opts) {
        rt::browser base(rt::chrome_profile());
        const double t_base = workloads::run_dromaeo_test(base, "dom-attr").duration_ms;
        rt::browser with(rt::chrome_profile());
        auto def = defenses::make_jskernel_defense(opts);
        def->install(with);
        const double t_kernel = workloads::run_dromaeo_test(with, "dom-attr").duration_ms;
        return t_base > 0 ? (t_kernel / t_base - 1.0) * 100.0 : 0.0;
    };
    artifact a;
    const double det = parsing_accuracy(jsk::kernel::kernel_options{}, 7);
    jsk::kernel::kernel_options fuzzy;
    fuzzy.fuzzy_prediction = true;
    const double fuzzy_acc = parsing_accuracy(fuzzy, 7);
    const int with = jsk::attacks::run_cve_suite_with_kernel(jsk::kernel::kernel_options{});
    jsk::kernel::kernel_options no_policies;
    no_policies.enable_cve_policies = false;
    const int without = jsk::attacks::run_cve_suite_with_kernel(no_policies);
    put(a.output, "deterministic_accuracy", det);
    put(a.output, "fuzzy_accuracy", fuzzy_acc);
    put(a.output, "cves_with_policies", with);
    put(a.output, "cves_scheduler_only", without);
    for (const long cost : {0L, 50L, 200L, 1000L}) {
        jsk::kernel::kernel_options opts;
        opts.interpose_cost = cost;
        put(a.output, "dom_attr_overhead/" + std::to_string(cost), dom_attr_overhead(opts));
    }
    a.shape_holds = det <= 0.55 && with == 0 && without > 0 && without <= 6;
    return a;
}

}  // namespace perfbench::paper
