// Unit tests for the comparator defenses' mechanisms.
#include <gtest/gtest.h>

#include "defenses/defense.h"
#include "runtime/rearm.h"

namespace {

using namespace jsk;
namespace sim = jsk::sim;
namespace rt = jsk::rt;

TEST(defenses_registry, all_six_columns_exist)
{
    const auto ids = defenses::all_defense_ids();
    ASSERT_EQ(ids.size(), 6u);
    for (const auto id : ids) {
        auto def = defenses::make_defense(id);
        ASSERT_NE(def, nullptr);
        EXPECT_EQ(def->name(), defenses::to_string(id));
    }
}

TEST(defense_tor, clock_is_coarsened_to_100ms)
{
    rt::browser b(rt::chrome_profile());
    auto def = defenses::make_defense(defenses::defense_id::tor_browser);
    def->install(b);
    double reading = -1.0;
    b.main().post_task(0, [&] {
        b.main().consume(250 * sim::ms);
        reading = b.main().apis().performance_now();
    });
    b.run();
    EXPECT_DOUBLE_EQ(reading, 200.0);  // floored to the 100 ms grid
}

TEST(defense_fuzzyfox, clock_readings_are_fuzzed_per_call)
{
    rt::browser b(rt::chrome_profile());
    auto def = defenses::make_defense(defenses::defense_id::fuzzyfox, 3);
    def->install(b);
    std::vector<double> readings;
    b.main().post_task(0, [&] {
        for (int i = 0; i < 4; ++i) readings.push_back(b.main().apis().performance_now());
    });
    b.run();
    ASSERT_EQ(readings.size(), 4u);
    // Same instant, but each reading got a fresh backdate.
    EXPECT_NE(readings[0], readings[1]);
}

TEST(defense_fuzzyfox, tasks_are_delayed_randomly)
{
    rt::browser b(rt::chrome_profile());
    auto def = defenses::make_defense(defenses::defense_id::fuzzyfox, 3);
    def->install(b);
    std::vector<double> fire_times;
    b.main().post_task(0, [&] {
        for (int i = 0; i < 6; ++i) {
            b.main().apis().set_timeout(
                [&] { fire_times.push_back(b.main().now_ms_raw()); }, 10 * sim::ms);
        }
    });
    b.run();
    ASSERT_EQ(fire_times.size(), 6u);
    // At least one timer was pushed visibly past its nominal deadline.
    double max_fire = 0.0;
    for (double t : fire_times) max_fire = std::max(max_fire, t);
    EXPECT_GT(max_fire, 11.0);
}

TEST(defense_chrome_zero, workers_are_polyfilled)
{
    rt::browser b(rt::chrome_profile());
    auto def = defenses::make_defense(defenses::defense_id::chrome_zero);
    def->install(b);
    EXPECT_TRUE(b.polyfill_workers());
    double worker_done_at = -1.0;
    b.register_worker_script("busy.js", [&](rt::context& ctx) {
        ctx.consume(5 * sim::ms);
        worker_done_at = ctx.now_ms_raw();
    });
    b.main().post_task(0, [&] {
        b.main().apis().create_worker("busy.js");
        b.main().consume(300 * sim::ms);
    });
    b.run();
    EXPECT_GT(worker_done_at, 300.0);  // no true parallelism
}

TEST(defense_deterfox, timers_stall_during_cross_origin_loads)
{
    rt::browser b(rt::chrome_profile());
    b.set_page_origin("https://attacker.example");
    auto def = defenses::make_defense(defenses::defense_id::deterfox);
    def->install(b);
    b.net().serve(rt::resource{"https://victim.example/big", "https://victim.example",
                               rt::resource_kind::data, 400'000, 0, 0, 0});
    int ticks_before_load_done = 0;
    bool load_done = false;
    b.main().post_task(0, [&] {
        auto& apis = b.main().apis();
        apis.fetch(
            "https://victim.example/big", {},
            [&](const rt::fetch_result&) { load_done = true; }, nullptr);
        auto count = std::make_shared<int>(0);
        apis.set_timeout(
            rt::rearming([&b, &ticks_before_load_done, &load_done, count](const auto& again) {
                if (!load_done) ++ticks_before_load_done;
                if (++*count < 40) b.main().apis().set_timeout(again, 0);
            }),
            0);
    });
    b.run();
    EXPECT_TRUE(load_done);
    // Every timer callback that would have run during the cross-origin load
    // was stalled until after it completed.
    EXPECT_EQ(ticks_before_load_done, 0);
}

TEST(defense_deterfox, same_origin_timers_run_normally)
{
    rt::browser b(rt::chrome_profile());
    auto def = defenses::make_defense(defenses::defense_id::deterfox);
    def->install(b);
    int ticks = 0;
    b.main().post_task(0, [&] {
        b.main().apis().set_timeout([&] { ++ticks; }, 1 * sim::ms);
    });
    b.run();
    EXPECT_EQ(ticks, 1);
}

TEST(defense_jskernel, kernel_is_booted_and_owns_clock)
{
    rt::browser b(rt::chrome_profile());
    auto def = defenses::make_defense(defenses::defense_id::jskernel);
    def->install(b);
    double reading = -1.0;
    b.main().post_task(0, [&] {
        b.main().consume(500 * sim::ms);
        reading = b.main().apis().performance_now();
    });
    b.run();
    EXPECT_LT(reading, 1.0);  // kernel time, not the 500 ms of physical time
}

}  // namespace
