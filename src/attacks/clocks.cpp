#include "attacks/clocks.h"

#include "runtime/rearm.h"

namespace jsk::attacks {

namespace sim = jsk::sim;

double count_timeout_ticks_during(rt::browser& b, const async_op& op)
{
    struct state {
        long ticks = 0;
        bool done = false;
    };
    auto st = std::make_shared<state>();
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, st, &op] {
        const auto tick = rt::rearming([bp, st](const auto& again) {
            if (st->done) return;
            ++st->ticks;
            bp->main().apis().set_timeout(again, 0);
        });
        bp->main().apis().set_timeout(tick, 0);
        op(*bp, [st] { st->done = true; });
    });
    b.run_until(60 * sim::sec);
    return static_cast<double>(st->ticks);
}

double count_now_polls_during(rt::browser& b, const async_op& op)
{
    struct state {
        long polls = 0;
        bool done = false;
    };
    auto st = std::make_shared<state>();
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, st, &op] {
        op(*bp, [st] { st->done = true; });
        rt::rearming([bp, st](const auto& again) {
            if (st->done) return;
            for (int i = 0; i < 64; ++i) {
                (void)bp->main().apis().performance_now();
                bp->main().consume(bp->profile().cheap_op_cost);
                ++st->polls;
            }
            bp->main().apis().set_timeout(again, 0);
        })();
    });
    b.run_until(60 * sim::sec);
    return static_cast<double>(st->polls);
}

double mean_raf_interval(rt::browser& b, int frames, const std::function<void(int)>& on_frame)
{
    struct state {
        std::vector<double> stamps;
    };
    auto st = std::make_shared<state>();
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, st, frames, &on_frame] {
        const auto frame =
            rt::rearming<double>([bp, st, frames, &on_frame](const auto& again, double ts) {
                st->stamps.push_back(ts);
                const int i = static_cast<int>(st->stamps.size());
                if (i < frames) {
                    on_frame(i);
                    bp->main().apis().request_animation_frame(again);
                }
            });
        on_frame(0);
        bp->main().apis().request_animation_frame(frame);
    });
    b.run_until(60 * sim::sec);
    if (st->stamps.size() < 2) return 0.0;
    double acc = 0.0;
    for (std::size_t i = 1; i < st->stamps.size(); ++i) {
        acc += st->stamps[i] - st->stamps[i - 1];
    }
    return acc / static_cast<double>(st->stamps.size() - 1);
}

double count_video_cues_during(rt::browser& b, const async_op& op)
{
    struct state {
        long cues = 0;
        bool done = false;
    };
    auto st = std::make_shared<state>();
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, st, &op] {
        auto& apis = bp->main().apis();
        auto video = apis.create_element("video");
        apis.set_cue_callback(video, [st] {
            if (!st->done) ++st->cues;
        });
        apis.play_video(video, 20 * sim::ms);
        op(*bp, [st, bp, video] {
            st->done = true;
            bp->painter().stop_video(video);
        });
    });
    b.run_until(60 * sim::sec);
    return static_cast<double>(st->cues);
}

}  // namespace jsk::attacks
