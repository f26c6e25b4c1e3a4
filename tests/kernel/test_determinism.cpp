// Property tests for the kernel's core security guarantee: under JSKernel,
// every user-observable measurement is a pure function of the program —
// independent of physical costs (the secret) and of browser profile.
//
// These are the invariants behind every row of Table I: if the observable
// timeline cannot depend on the secret, no implicit clock can measure it.
#include <gtest/gtest.h>

#include "kernel/kernel.h"
#include "runtime/rearm.h"

namespace {

using namespace jsk::kernel;
namespace rt = jsk::rt;
namespace sim = jsk::sim;

/// Run "measure an async op with a setTimeout implicit clock" and return the
/// attacker's observation: (tick count during the op, reported duration).
struct observation {
    int ticks = 0;
    double reported = 0.0;
    bool operator==(const observation&) const = default;
};

observation measure_with_timeout_clock(rt::browser& b, sim::time_ns secret_cost)
{
    // Attack state lives on the heap: the timer closures outlive this frame.
    struct state {
        observation out;
        bool done = false;
        double t0 = 0.0;
    };
    auto st = std::make_shared<state>();
    b.net().serve(rt::resource{"https://x/secret", "https://x", rt::resource_kind::data, 1000,
                               0, 0, secret_cost});
    b.main().post_task(0, [&b, st] {
        auto& apis = b.main().apis();
        st->t0 = apis.performance_now();
        // The implicit clock: a self-rescheduling timer counting ticks.
        apis.set_timeout(rt::rearming([&b, st](const auto& again) {
                             if (st->done) return;
                             ++st->out.ticks;
                             b.main().apis().set_timeout(again, 0);
                         }),
                         0);
        apis.fetch(
            "https://x/secret", {},
            [&b, st](const rt::fetch_result&) {
                st->done = true;
                st->out.reported = b.main().apis().performance_now() - st->t0;
            },
            nullptr);
    });
    b.run();
    return st->out;
}

TEST(determinism, timeout_clock_observation_is_secret_independent)
{
    observation fast, slow;
    {
        rt::browser b(rt::chrome_profile());
        auto k = kernel::boot(b);
        fast = measure_with_timeout_clock(b, 1 * sim::ms);
    }
    {
        rt::browser b(rt::chrome_profile());
        auto k = kernel::boot(b);
        slow = measure_with_timeout_clock(b, 800 * sim::ms);
    }
    EXPECT_EQ(fast, slow);  // identical ticks AND identical reported time
    EXPECT_GT(fast.ticks, 0);
}

TEST(determinism, without_kernel_the_same_clock_leaks)
{
    observation fast, slow;
    {
        rt::browser b(rt::chrome_profile());
        fast = measure_with_timeout_clock(b, 1 * sim::ms);
    }
    {
        rt::browser b(rt::chrome_profile());
        slow = measure_with_timeout_clock(b, 800 * sim::ms);
    }
    EXPECT_GT(slow.ticks, fast.ticks + 10);  // the leak the kernel removes
    EXPECT_GT(slow.reported, fast.reported);
}

TEST(determinism, worker_message_count_is_secret_independent)
{
    // Listing 1: a worker floods postMessage while the main thread waits for
    // a secret-duration operation; the adversary counts deliveries.
    auto run = [](sim::time_ns secret_cost) {
        rt::browser b(rt::chrome_profile());
        auto k = kernel::boot(b);
        b.net().serve(rt::resource{"https://x/op", "https://x", rt::resource_kind::data, 100,
                                   0, 0, secret_cost});
        b.register_worker_script("flood.js", [](rt::context& ctx) {
            // The chunked i++/postMessage loop of Listing 1 (lines 2-5).
            ctx.apis().set_interval(
                [&ctx] { ctx.apis().post_message_to_parent(rt::js_value{1}, {}); },
                1 * sim::ms);
        });
        int during = -1;
        b.main().post_task(0, [&] {
            auto w = b.main().apis().create_worker("flood.js");
            auto count = std::make_shared<int>(0);
            w->set_onmessage([count](const rt::message_event&) { ++*count; });
            b.main().apis().fetch(
                "https://x/op", {},
                [&during, count, w](const rt::fetch_result&) {
                    during = *count;
                    w->terminate();
                },
                nullptr);
        });
        b.run_until(5 * sim::sec);
        return during;
    };
    const int fast = run(1 * sim::ms);
    const int slow = run(500 * sim::ms);
    EXPECT_EQ(fast, slow);
}

TEST(determinism, clock_edge_iteration_count_is_secret_independent)
{
    // Clock-edge attack (§IV-A4): count performance.now() polls until the
    // secret's completion callback runs.
    auto run = [](sim::time_ns secret_cost) {
        rt::browser b(rt::chrome_profile());
        auto k = kernel::boot(b);
        b.net().serve(rt::resource{"https://x/s", "https://x", rt::resource_kind::data, 100,
                                   0, 0, secret_cost});
        struct state {
            long polls = 0;
            bool done = false;
        };
        auto st = std::make_shared<state>();
        b.main().post_task(0, [&b, st] {
            auto& apis = b.main().apis();
            apis.fetch("https://x/s", {}, [st](const rt::fetch_result&) { st->done = true; },
                       nullptr);
            rt::rearming([&b, st](const auto& again) {
                if (st->done) return;
                for (int i = 0; i < 64; ++i) {
                    (void)b.main().apis().performance_now();
                    ++st->polls;
                }
                b.main().apis().set_timeout(again, 0);
            })();
        });
        b.run_until(10 * sim::sec);
        return st->polls;
    };
    EXPECT_EQ(run(1 * sim::ms), run(700 * sim::ms));
}

TEST(determinism, observation_is_identical_across_browser_profiles)
{
    // The same program under Chrome/Firefox/Edge kernels observes the same
    // kernel timeline (the extension behaves identically on all three).
    observation chrome, firefox, edge;
    {
        rt::browser b(rt::chrome_profile());
        auto k = kernel::boot(b);
        chrome = measure_with_timeout_clock(b, 50 * sim::ms);
    }
    {
        rt::browser b(rt::firefox_profile());
        auto k = kernel::boot(b);
        firefox = measure_with_timeout_clock(b, 50 * sim::ms);
    }
    {
        rt::browser b(rt::edge_profile());
        auto k = kernel::boot(b);
        edge = measure_with_timeout_clock(b, 50 * sim::ms);
    }
    EXPECT_EQ(chrome, firefox);
    EXPECT_EQ(chrome, edge);
}

TEST(determinism, fuzzy_ablation_is_not_deterministic_across_seeds)
{
    auto run = [](std::uint64_t seed) {
        rt::browser b(rt::chrome_profile());
        kernel_options opts;
        opts.fuzzy_prediction = true;
        opts.fuzz_seed = seed;
        auto k = kernel::boot(b, opts);
        return measure_with_timeout_clock(b, 50 * sim::ms);
    };
    const observation a = run(1);
    const observation b2 = run(1);
    const observation c = run(99);
    EXPECT_EQ(a, b2);                       // same seed reproduces
    EXPECT_NE(a.reported, c.reported);      // different seed, different timeline
}

}  // namespace
