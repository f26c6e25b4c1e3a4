// Overhead guards: the "off" state of each optional seam must cost what
// the seam's absence costs.
//
//  * obs: every trace point is one null-sink branch, so a simulation whose
//    sink was attached and then detached schedules like one that never had
//    a sink;
//  * faults: an injector with a null plan takes the same early-out as no
//    injector (browser::active_faults() returns nullptr);
//  * svc: store appends through a vfs seam over a null io_plan cost what
//    appends through the bare default vfs cost.
//
// Each guard runs one untimed round, then times the two variants in
// alternating passes (A B A B ...), so a machine slowdown hits both alike,
// and compares the best pass of each:
// the variant must stay under 1.5x the baseline. When the baseline's own
// worst/best pass spread reaches 1.3x the machine moved, not the code, and
// the guard skips rather than flakes. Sanitizers distort the ratios, so
// sanitized builds skip outright. The binary runs RUN_SERIAL in ctest so
// parallel test processes do not share its cores.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "faults/injector.h"
#include "faults/io.h"
#include "faults/plan.h"
#include "obs/trace.h"
#include "runtime/browser.h"
#include "runtime/profile.h"
#include "sanitized_build.h"
#include "sim/simulation.h"
#include "svc/store.h"
#include "svc/vfs.h"

namespace {

using namespace jsk;
namespace fs = std::filesystem;
using clock_type = std::chrono::steady_clock;

constexpr int passes = 3;
constexpr double bound = 1.5;       // variant best / baseline best
constexpr double stability = 1.3;   // baseline worst / best, else skip

double seconds_since(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Run `baseline` and `variant` in alternating passes (each returns its
/// cost per unit of work) and apply the guard rule above.
template <typename Baseline, typename Variant>
void expect_prices_alike(Baseline baseline, Variant variant)
{
    if (sanitized_build()) GTEST_SKIP() << "timing guard: sanitized build";
    baseline();  // warm-up round, untimed: allocator, caches, lazy statics
    variant();
    double base_best = 0;
    double base_worst = 0;
    double variant_best = 0;
    for (int p = 0; p < passes; ++p) {
        const double b = baseline();
        const double v = variant();
        if (p == 0 || b < base_best) base_best = b;
        if (p == 0 || b > base_worst) base_worst = b;
        if (p == 0 || v < variant_best) variant_best = v;
    }
    ASSERT_GT(base_best, 0.0);
    const double noise = base_worst / base_best;
    if (noise >= stability) {
        GTEST_SKIP() << "baseline passes spread " << noise << "x: machine too noisy to judge";
    }
    EXPECT_LT(variant_best / base_best, bound)
        << "baseline " << base_best << " vs variant " << variant_best << " per unit";
}

// --- obs: detached sink vs never attached ----------------------------------

/// Cross-posting DES workload: `chains` task chains ping-pong across
/// `threads` threads (deterministic pseudo-random targets, mostly
/// near-future posts, occasional far timers) until `total` tasks ran.
struct sim_workload {
    sim::simulation sim;
    std::vector<sim::thread_id> threads;
    std::uint64_t budget;
    std::uint64_t rng = 0x2545f4914f6cdd1dull;

    sim_workload(int thread_count, int chains, std::uint64_t total) : budget(total)
    {
        for (int t = 0; t < thread_count; ++t) {
            threads.push_back(sim.create_thread("t" + std::to_string(t)));
        }
        for (int c = 0; c < chains; ++c) {
            sim.post(threads[static_cast<std::size_t>(c) % threads.size()], c * sim::us,
                     [this] { step(); }, "step");
        }
    }

    void step()
    {
        sim.consume(1 * sim::us);
        if (budget == 0) return;
        --budget;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const sim::thread_id target = threads[rng % threads.size()];
        const sim::time_ns delay = (rng >> 8) % 16 == 0 ? (1 + (rng >> 16) % 50) * sim::ms
                                                        : (rng >> 16) % 4 * sim::us;
        sim.post(target, sim.now() + delay, [this] { step(); }, "step");
    }
};

/// ns per task of one sim_workload pass; `detach_sink` attaches a sink and
/// detaches it again before the run.
double sim_pass(bool detach_sink)
{
    constexpr std::uint64_t tasks = 200'000;
    sim_workload w(/*thread_count=*/4, /*chains=*/64, tasks);
    obs::sink sink;
    if (detach_sink) {
        w.sim.set_trace_sink(&sink);
        w.sim.set_trace_sink(nullptr);
    }
    const auto t0 = clock_type::now();
    w.sim.run(tasks);
    return seconds_since(t0) * 1e9 / static_cast<double>(w.sim.tasks_executed());
}

TEST(overhead_guard, detached_trace_sink_prices_like_no_sink)
{
    expect_prices_alike([] { return sim_pass(false); }, [] { return sim_pass(true); });
}

// --- faults: null-plan injector vs no injector -----------------------------

/// ns per task of a browser-level postMessage ping-pong with an echo worker
/// (postMessage both ways is the hottest fault interposition site).
double ping_pong_pass(faults::injector* inj)
{
    constexpr int rounds = 20'000;
    rt::browser b(rt::chrome_profile(), 7);
    if (inj != nullptr) b.set_fault_injector(inj);
    b.register_worker_script("echo.js", [](rt::context& ctx) {
        ctx.apis().set_self_onmessage([&ctx](const rt::message_event& e) {
            ctx.apis().post_message_to_parent(e.data, {});
        });
    });
    int remaining = rounds;
    b.main().post_task(0, [&] {
        auto w = b.main().apis().create_worker("echo.js");
        w->set_onmessage([&remaining, w](const rt::message_event&) {
            if (--remaining > 0) w->post_message(rt::js_value{1.0}, {});
        });
        w->post_message(rt::js_value{1.0}, {});
    });
    const auto t0 = clock_type::now();
    b.run();
    return seconds_since(t0) * 1e9 / static_cast<double>(b.sim().tasks_executed());
}

TEST(overhead_guard, null_fault_plan_prices_like_no_injector)
{
    expect_prices_alike([] { return ping_pong_pass(nullptr); },
                        [] {
                            faults::injector inj{faults::plan{}};  // all rates zero
                            return ping_pong_pass(&inj);
                        });
}

// --- svc: null io_plan seam vs the bare default vfs ------------------------

/// ns per put of 32 synced batches of 64 appends (fsync off) into a fresh
/// store under `dir`, through `seam` (nullptr = the default vfs).
double append_pass(const std::string& dir, svc::vfs* seam)
{
    constexpr int batches = 32;
    constexpr int batch = 64;
    fs::remove_all(dir);
    svc::store_options opt;
    opt.dir = dir;
    opt.fsync = false;
    opt.fs = seam;
    svc::store st(opt);
    const std::string value(256, 'v');
    const auto t0 = clock_type::now();
    for (int b = 0; b < batches; ++b) {
        for (int i = 0; i < batch; ++i) {
            st.put("key-" + std::to_string(b) + "-" + std::to_string(i), value);
        }
        EXPECT_TRUE(st.sync());
    }
    return seconds_since(t0) * 1e9 / (batches * batch);
}

TEST(overhead_guard, null_io_plan_seam_prices_like_the_default_vfs)
{
    const std::string dir = (fs::path(::testing::TempDir()) / "jsk_overhead_guard_store").string();
    faults::io_injector inj{faults::io_plan{}};
    svc::vfs seam(&inj);
    expect_prices_alike([&] { return append_pass(dir, nullptr); },
                        [&] { return append_pass(dir, &seam); });
    fs::remove_all(dir);
}

}  // namespace
