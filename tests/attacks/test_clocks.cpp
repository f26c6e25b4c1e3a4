// Unit tests for the implicit-clock measurement helpers.
#include <gtest/gtest.h>

#include "attacks/clocks.h"

namespace {

using namespace jsk;
namespace sim = jsk::sim;
namespace rt = jsk::rt;

attacks::async_op delay_op(sim::time_ns latency)
{
    return [latency](rt::browser& b, std::function<void()> done) {
        b.main().apis().set_timeout([done] { done(); }, latency);
    };
}

TEST(timeout_clock, counts_scale_with_op_duration)
{
    rt::browser fast_browser(rt::chrome_profile());
    const double fast = attacks::count_timeout_ticks_during(fast_browser, delay_op(20 * sim::ms));
    rt::browser slow_browser(rt::chrome_profile());
    const double slow =
        attacks::count_timeout_ticks_during(slow_browser, delay_op(200 * sim::ms));
    EXPECT_GT(fast, 0.0);
    EXPECT_GT(slow, fast * 3);
}

TEST(timeout_clock, zero_duration_op_counts_nothing)
{
    rt::browser b(rt::chrome_profile());
    const double ticks = attacks::count_timeout_ticks_during(
        b, [](rt::browser& bb, std::function<void()> done) {
            bb.main().queue_microtask(done);
            bb.main().consume(1);
        });
    EXPECT_LT(ticks, 2.0);
}

TEST(now_polls, scale_with_op_duration)
{
    rt::browser fast_browser(rt::chrome_profile());
    const double fast = attacks::count_now_polls_during(fast_browser, delay_op(10 * sim::ms));
    rt::browser slow_browser(rt::chrome_profile());
    const double slow = attacks::count_now_polls_during(slow_browser, delay_op(60 * sim::ms));
    EXPECT_GT(slow, fast * 2);
}

TEST(raf_interval, idle_page_runs_at_60hz)
{
    rt::browser b(rt::chrome_profile());
    const double interval = attacks::mean_raf_interval(b, 6, [](int) {});
    EXPECT_NEAR(interval, 16.666, 0.5);
}

TEST(raf_interval, heavy_frames_slip_the_grid)
{
    rt::browser b(rt::chrome_profile());
    rt::browser* bp = &b;
    const double interval = attacks::mean_raf_interval(
        b, 6, [bp](int) { bp->painter().add_paint_work(20 * sim::ms); });
    EXPECT_GT(interval, 30.0);
}

TEST(video_cues, count_tracks_duration)
{
    rt::browser fast_browser(rt::chrome_profile());
    const double fast = attacks::count_video_cues_during(fast_browser, delay_op(50 * sim::ms));
    rt::browser slow_browser(rt::chrome_profile());
    const double slow =
        attacks::count_video_cues_during(slow_browser, delay_op(400 * sim::ms));
    EXPECT_GT(slow, fast);
}

}  // namespace
