// The rAF / CSS-animation implicit-clock rows of Table I: history sniffing
// [9], SVG filtering [9], floating point [10], loopscan [11], CSS animation
// [12], video/WebVTT [6].
#include "attacks/attacks_impl.h"
#include "attacks/clocks.h"
#include "runtime/rearm.h"

namespace jsk::attacks {

namespace sim = jsk::sim;

// --- history sniffing [9]: :visited repaint time ---------------------------------

std::string history_sniffing::name() const { return "History Sniffing"; }
std::string history_sniffing::family() const { return "rAF clock"; }

double history_sniffing::measure(rt::browser& b, bool secret_b)
{
    const std::string target = "https://bank.example/login";
    if (!secret_b) b.history().mark_visited(target);  // A: the user visited it
    // Paint 220 probe links each frame; :visited links take the slow path.
    std::vector<rt::element_ptr> links;
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, &links, target] {
        auto& apis = bp->main().apis();
        for (int i = 0; i < 220; ++i) {
            auto a = apis.create_element("a");
            a->set_attribute_raw("href", target);
            apis.append_child(bp->doc().root(), a);
            links.push_back(a);
        }
    });
    return mean_raf_interval(b, 8, [bp, &links](int) {
        for (const auto& a : links) bp->painter().mark_dirty(a);
    });
}

// --- SVG filtering [9][14]: erode cost depends on the filtered surface -------------

std::string svg_filtering::name() const { return "SVG Filtering"; }
std::string svg_filtering::family() const { return "rAF clock"; }

double svg_filtering::measure_resolution(rt::browser& b, std::uint32_t dim)
{
    const std::string url = "https://victim.example/secret.png";
    b.net().serve(rt::resource{url, "https://victim.example", rt::resource_kind::image,
                               static_cast<std::size_t>(dim) * dim / 4, dim, dim, 0});
    auto img = std::make_shared<rt::element>("img");
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, img, url] {
        auto& apis = bp->main().apis();
        img->set_attribute_raw("src", url);
        img->set_attribute_raw("filter", "erode");
        img->set_attribute_raw("filter-iterations", "24");
        apis.append_child(bp->doc().root(), img);
    });
    return mean_raf_interval(b, 8, [bp, img](int) { bp->painter().mark_dirty(img); });
}

double svg_filtering::measure(rt::browser& b, bool secret_b)
{
    return measure_resolution(b, secret_b ? 512 : 64);
}

// --- floating point [10]: subnormal operands are slow ------------------------------

std::string floating_point::name() const { return "Floating Point"; }
std::string floating_point::family() const { return "rAF clock"; }

double floating_point::measure(rt::browser& b, bool secret_b)
{
    // A filter pipeline processes 90k pixels per frame; when the secret pixel
    // makes operands subnormal, each op pays the subnormal penalty.
    const sim::time_ns per_op =
        secret_b ? b.profile().subnormal_op_penalty + b.profile().cheap_op_cost
                 : b.profile().cheap_op_cost;
    const sim::time_ns frame_work = 90'000 * per_op;
    rt::browser* bp = &b;
    return mean_raf_interval(b, 8,
                             [bp, frame_work](int) { bp->painter().add_paint_work(frame_work); });
}

// --- loopscan [11]: event-loop usage pattern of the victim origin -------------------

std::string loopscan::name() const { return "Loopscan"; }
std::string loopscan::family() const { return "rAF clock"; }

namespace {

struct loopscan_probe {
    long ticks = 0;
    double max_gap = 0.0;
    double last_now = -1.0;
    double start_now = -1.0;
    bool done = false;
};

/// Run the monitoring chain until the *reported* clock advanced 400 ms;
/// records tick count and the largest reported inter-tick gap.
std::shared_ptr<loopscan_probe> run_probe(rt::browser& b,
                                          const workloads::event_profile& victim)
{
    workloads::run_event_profile(b, victim);
    auto probe = std::make_shared<loopscan_probe>();
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, probe] {
        // A 1 ms monitoring interval (the original attack uses a fast
        // self-message loop; the setTimeout nested clamp would blur the
        // victim's task durations).
        auto id = std::make_shared<std::int64_t>(0);
        *id = bp->main().apis().set_interval(
            [bp, probe, id] {
                if (probe->done) return;
                const double now = bp->main().apis().performance_now();
                if (probe->start_now < 0) probe->start_now = now;
                if (probe->last_now >= 0) {
                    probe->max_gap = std::max(probe->max_gap, now - probe->last_now);
                }
                probe->last_now = now;
                ++probe->ticks;
                if (now - probe->start_now >= 400.0) {
                    probe->done = true;
                    bp->main().apis().clear_interval(*id);
                }
            },
            1 * sim::ms);
    });
    b.run_until(120 * sim::sec);
    return probe;
}

}  // namespace

double loopscan::max_event_interval(rt::browser& b, const workloads::event_profile& victim)
{
    return run_probe(b, victim)->max_gap;
}

double loopscan::measure(rt::browser& b, bool secret_b)
{
    // Classification signal: tick throughput inside a clock-delimited window
    // (robust even under coarse explicit clocks).
    const auto victim =
        secret_b ? workloads::youtube_event_profile() : workloads::google_event_profile();
    return static_cast<double>(run_probe(b, victim)->ticks);
}

// --- CSS animation [12]: animation progress as an implicit clock --------------------

std::string css_animation::name() const { return "CSS Animation"; }
std::string css_animation::family() const { return "rAF clock"; }

double css_animation::measure(rt::browser& b, bool secret_b)
{
    // Secret-dependent paint load janks frames; the adversary reads the
    // animation's progress after a fixed number of timer ticks.
    const sim::time_ns frame_work = secret_b ? 30 * sim::ms : 1 * sim::ms;
    struct state {
        double progress = 0.0;
        int ticks_left = 25;
    };
    auto st = std::make_shared<state>();
    auto target = std::make_shared<rt::element>("div");
    rt::browser* bp = &b;
    b.main().post_task(0, [bp, st, target, frame_work] {
        bp->painter().start_animation(target, 600);
        const auto tick = rt::rearming([bp, st, target, frame_work](const auto& again) {
            bp->painter().add_paint_work(frame_work);
            if (--st->ticks_left <= 0) {
                st->progress =
                    std::stod(bp->main().apis().get_attribute(target, "animation-progress"));
                return;
            }
            bp->main().apis().set_timeout(again, 10 * sim::ms);
        });
        bp->main().apis().set_timeout(tick, 10 * sim::ms);
    });
    b.run_until(120 * sim::sec);
    return st->progress;
}

// --- video/WebVTT [6]: cue events as an implicit clock --------------------------------

std::string video_vtt::name() const { return "Video/WebVTT"; }
std::string video_vtt::family() const { return "rAF clock"; }

double video_vtt::measure(rt::browser& b, bool secret_b)
{
    const std::string url = "https://victim.example/probe";
    b.net().serve(rt::resource{url, "https://victim.example", rt::resource_kind::data, 2'048,
                               0, 0, secret_b ? 300 * sim::ms : 50 * sim::ms});
    return count_video_cues_during(b, [url](rt::browser& bb, std::function<void()> done) {
        bb.main().apis().fetch(
            url, {}, [done](const rt::fetch_result&) { done(); },
            [done](const rt::fetch_result&) { done(); });
    });
}

}  // namespace jsk::attacks
