#include "workloads/sites.h"

#include <memory>
#include <stdexcept>

#include "runtime/rearm.h"
#include "sim/rng.h"

namespace jsk::workloads {

namespace sim = jsk::sim;
namespace rt = jsk::rt;

// --- event-loop profiles -------------------------------------------------------

event_profile google_event_profile()
{
    event_profile p;
    p.name = "google";
    // Dense, short tasks: parsing chunks, instant-search handlers.
    for (int i = 0; i < 120; ++i) {
        p.tasks.push_back(site_task{i * 2 * sim::ms, 300 * sim::us});
    }
    p.tasks.push_back(site_task{60 * sim::ms, 4'500 * sim::us});   // one layout burst
    p.tasks.push_back(site_task{180 * sim::ms, 3'800 * sim::us});
    return p;
}

event_profile youtube_event_profile()
{
    event_profile p;
    p.name = "youtube";
    // Sparser but much heavier tasks: player setup, thumbnail decoding.
    for (int i = 0; i < 40; ++i) {
        p.tasks.push_back(site_task{i * 6 * sim::ms, 1'200 * sim::us});
    }
    for (int i = 0; i < 9; ++i) {
        // Player bursts, spaced so they never merge into one longer gap;
        // the heaviest is 8.8 ms (Table II's Chrome value).
        p.tasks.push_back(site_task{(260 + i * 12) * sim::ms,
                                    (7'000 + (i % 3) * 600) * sim::us});
    }
    p.tasks.push_back(site_task{245 * sim::ms, 8'800 * sim::us});
    return p;
}

void run_event_profile(rt::browser& b, const event_profile& profile)
{
    for (const auto& task : profile.tasks) {
        b.main().post_task(
            task.delay, [&b, cost = task.cost] { b.main().consume(cost); },
            "victim:" + profile.name);
    }
}

// --- page loads ------------------------------------------------------------------

site_spec make_synthetic_site(std::uint64_t rank, std::uint64_t seed)
{
    sim::rng rng(seed * 1'000'003 + rank);
    site_spec site;
    site.name = "site" + std::to_string(rank);
    site.origin = "https://" + site.name + ".example";

    const int scripts = static_cast<int>(rng.uniform(2, 8));
    const int images = static_cast<int>(rng.uniform(3, 14));
    site.dom_nodes = static_cast<int>(rng.uniform(30, 220));
    site.timer_chains = static_cast<int>(rng.uniform(1, 5));
    site.workers = rng.chance(0.25) ? static_cast<int>(rng.uniform(1, 3)) : 0;

    for (int i = 0; i < scripts; ++i) {
        rt::resource res;
        res.url = site.origin + "/s" + std::to_string(i) + ".js";
        res.origin = site.origin;
        res.kind = rt::resource_kind::script;
        res.bytes = static_cast<std::size_t>(rng.uniform(4'000, 220'000));
        site.resources.push_back(res);
        site.script_urls.push_back(res.url);
    }
    for (int i = 0; i < images; ++i) {
        rt::resource res;
        res.url = site.origin + "/i" + std::to_string(i) + ".png";
        res.origin = site.origin;
        res.kind = rt::resource_kind::image;
        res.width = static_cast<std::uint32_t>(rng.uniform(32, 640));
        res.height = static_cast<std::uint32_t>(rng.uniform(32, 480));
        res.bytes = static_cast<std::size_t>(res.width) * res.height / 4;
        site.resources.push_back(res);
        site.image_urls.push_back(res.url);
    }
    if (!site.image_urls.empty()) site.hero_url = site.image_urls.front();
    return site;
}

site_spec raptor_site(const std::string& name, const std::string& browser_name)
{
    // Content weights tuned so the Chrome hero timings land in Table III's
    // ranges (google < amazon < facebook < youtube); Firefox's Raptor hero
    // metric runs on a much heavier rendering path in the paper's numbers,
    // reproduced with a per-browser render factor.
    struct shape {
        int scripts;
        std::size_t script_bytes;
        int images;
        std::uint32_t img_dim;
        int dom_nodes;
    };
    shape s;
    if (name == "amazon") s = {6, 60'000, 10, 200, 160};
    else if (name == "facebook") s = {9, 90'000, 12, 220, 260};
    else if (name == "google") s = {3, 30'000, 3, 140, 70};
    else if (name == "youtube") s = {8, 120'000, 16, 320, 300};
    else throw std::invalid_argument("unknown raptor site: " + name);

    site_spec site;
    site.name = name;
    site.origin = "https://" + name + ".example";
    site.dom_nodes = s.dom_nodes;
    site.timer_chains = 3;
    site.workers = name == "youtube" ? 2 : 0;
    site.extra_render_cost_factor = browser_name == "firefox"  ? 7.0
                                    : browser_name == "edge"   ? 3.0
                                                               : 1.0;
    for (int i = 0; i < s.scripts; ++i) {
        rt::resource res;
        res.url = site.origin + "/s" + std::to_string(i) + ".js";
        res.origin = site.origin;
        res.kind = rt::resource_kind::script;
        res.bytes = s.script_bytes;
        site.resources.push_back(res);
        site.script_urls.push_back(res.url);
    }
    for (int i = 0; i < s.images; ++i) {
        rt::resource res;
        res.url = site.origin + "/i" + std::to_string(i) + ".png";
        res.origin = site.origin;
        res.kind = rt::resource_kind::image;
        // The last image is the hero banner: the largest above-the-fold
        // asset, which is what Raptor's hero-element timing keys on.
        const bool is_hero = i == s.images - 1;
        res.width = is_hero ? s.img_dim * 3 : s.img_dim;
        res.height = is_hero ? s.img_dim * 3 : s.img_dim;
        res.bytes = static_cast<std::size_t>(res.width) * res.height / 4;
        site.resources.push_back(res);
        site.image_urls.push_back(res.url);
    }
    site.hero_url = site.image_urls.back();
    return site;
}

load_result load_site(rt::browser& b, const site_spec& site)
{
    for (const auto& res : site.resources) b.net().serve(res);
    b.set_page_origin(site.origin);

    // Trivial worker bodies for sites that use workers.
    for (int i = 0; i < site.workers; ++i) {
        b.register_worker_script(site.origin + "/w" + std::to_string(i) + ".js",
                                 [](rt::context& ctx) { ctx.consume(2 * sim::ms); });
    }

    struct progress {
        int outstanding = 0;
        double onload_ms = -1.0;
        double hero_ms = -1.0;
        double start_ms = 0.0;
    };
    auto st = std::make_shared<progress>();
    rt::browser* bp = &b;

    // `site` is captured by value: the loader task normally runs inside the
    // run_until below, but a copy keeps queued loads safe even if a caller
    // composes loads in ways that defer the task past this frame.
    b.main().post_task(0, [bp, st, site] {
        auto& apis = bp->main().apis();
        st->start_ms = bp->main().now_ms_raw();
        const auto finish_one = [bp, st] {
            if (--st->outstanding == 0) {
                st->onload_ms = bp->main().now_ms_raw() - st->start_ms;
            }
        };

        // DOM construction.
        for (int i = 0; i < site.dom_nodes; ++i) {
            auto div = apis.create_element("div");
            apis.set_attribute(div, "class", "n" + std::to_string(i % 7));
            apis.append_child(bp->doc().root(), div);
        }
        // Subresources.
        for (const auto& url : site.script_urls) {
            ++st->outstanding;
            auto script = apis.create_element("script");
            script->set_attribute_raw("src", url);
            script->onload = finish_one;
            script->onerror = [finish_one](const std::string&) { finish_one(); };
            apis.append_child(bp->doc().root(), script);
        }
        for (const auto& url : site.image_urls) {
            ++st->outstanding;
            auto img = apis.create_element("img");
            img->set_attribute_raw("src", url);
            const bool is_hero = url == site.hero_url;
            img->onload = [bp, st, finish_one, is_hero] {
                if (is_hero) st->hero_ms = bp->main().now_ms_raw() - st->start_ms;
                finish_one();
            };
            img->onerror = [finish_one](const std::string&) { finish_one(); };
            apis.append_child(bp->doc().root(), img);
        }
        // JS activity: short self-rescheduling timer chains.
        for (int c = 0; c < site.timer_chains; ++c) {
            auto steps = std::make_shared<int>(6);
            apis.set_timeout(rt::rearming([bp, steps](const auto& again) {
                                 bp->main().consume(200 * sim::us);
                                 if (--*steps > 0) bp->main().apis().set_timeout(again, 0);
                             }),
                             1 * sim::ms);
        }
        // Workers.
        for (int i = 0; i < site.workers; ++i) {
            auto w = apis.create_worker(bp->page_origin() + "/w" + std::to_string(i) + ".js");
            (void)w;
        }
        // Per-browser Raptor render weight.
        if (site.extra_render_cost_factor > 1.0) {
            bp->main().consume(static_cast<sim::time_ns>(
                (site.extra_render_cost_factor - 1.0) * 40.0 * sim::ms));
        }
    });
    // Relative horizon: a browser that has already loaded sites (or run
    // anything else) sits past t=0, and an absolute deadline in the past
    // would return without ever executing the loader task posted above.
    b.run_until(b.sim().now() + 120 * sim::sec);
    if (st->onload_ms < 0) st->onload_ms = b.main().now_ms_raw() - st->start_ms;
    if (st->hero_ms < 0) st->hero_ms = st->onload_ms;
    return load_result{st->onload_ms, st->hero_ms};
}

// --- Dromaeo-like micro suites -------------------------------------------------------

std::vector<std::string> dromaeo_tests()
{
    // Dromaeo's real suite is dominated by pure-JS tests; only a handful are
    // DOM-bound, which is why the paper's median overhead is near zero while
    // the DOM attribute test pays ~21%.
    return {"math-cordic",   "math-partial-sums", "math-spectral-norm", "bitops-3bit",
            "string-tagcloud", "string-base64",   "regexp-dna",         "crypto-sha1",
            "3d-cube",        "array-ops",        "object-ops",         "json-serialize",
            "dom-attr",       "dom-modify",       "dom-query",          "dom-traverse"};
}

namespace {

double run_compute_test(rt::browser& b, int ops, sim::time_ns per_op)
{
    double duration = 0.0;
    b.main().post_task(0, [&] {
        const double t0 = b.main().now_ms_raw();
        // Pure JS compute: no interposable API involved.
        b.main().consume(per_op * ops);
        duration = b.main().now_ms_raw() - t0;
    });
    b.run();
    return duration;
}

double run_json_test(rt::browser& b, int ops)
{
    double duration = 0.0;
    b.main().post_task(0, [&] {
        const double t0 = b.main().now_ms_raw();
        rt::js_value obj = rt::make_object({{"k", 1}, {"list", rt::js_value{rt::js_array{
                                                                  1, 2, "three"}}}});
        std::size_t total = 0;
        for (int i = 0; i < ops; ++i) {
            total += obj.to_string().size();
            b.main().consume(80);
        }
        (void)total;
        duration = b.main().now_ms_raw() - t0;
    });
    b.run();
    return duration;
}

double run_dom_attr_test(rt::browser& b, int ops)
{
    double duration = 0.0;
    b.main().post_task(0, [&] {
        auto& apis = b.main().apis();
        auto el = apis.create_element("div");
        const double t0 = b.main().now_ms_raw();
        for (int i = 0; i < ops; ++i) {
            apis.set_attribute(el, "data-x", std::to_string(i & 7));
            (void)apis.get_attribute(el, "data-x");
        }
        duration = b.main().now_ms_raw() - t0;
    });
    b.run();
    return duration;
}

double run_dom_modify_test(rt::browser& b, int ops)
{
    double duration = 0.0;
    b.main().post_task(0, [&] {
        auto& apis = b.main().apis();
        const double t0 = b.main().now_ms_raw();
        auto parent = apis.create_element("div");
        for (int i = 0; i < ops; ++i) {
            auto child = apis.create_element("span");
            apis.append_child(parent, child);
        }
        duration = b.main().now_ms_raw() - t0;
    });
    b.run();
    return duration;
}

double run_dom_query_test(rt::browser& b, int ops)
{
    double duration = 0.0;
    b.main().post_task(0, [&] {
        auto& apis = b.main().apis();
        auto el = apis.create_element("a");
        apis.set_attribute(el, "href", "https://x");
        const double t0 = b.main().now_ms_raw();
        for (int i = 0; i < ops; ++i) (void)apis.get_attribute(el, "href");
        duration = b.main().now_ms_raw() - t0;
    });
    b.run();
    return duration;
}

double run_dom_traverse_test(rt::browser& b, int ops)
{
    double duration = 0.0;
    b.main().post_task(0, [&] {
        auto& apis = b.main().apis();
        auto root = apis.create_element("div");
        for (int i = 0; i < 32; ++i) {
            auto child = apis.create_element("p");
            apis.set_attribute(child, "id", std::to_string(i));
            apis.append_child(root, child);
        }
        const double t0 = b.main().now_ms_raw();
        for (int i = 0; i < ops; ++i) {
            for (const auto& child : root->children()) {
                (void)apis.get_attribute(child, "id");
            }
        }
        duration = b.main().now_ms_raw() - t0;
    });
    b.run();
    return duration;
}

}  // namespace

micro_result run_dromaeo_test(rt::browser& b, const std::string& test)
{
    micro_result out;
    out.test = test;
    if (test == "math-cordic") out.duration_ms = run_compute_test(b, 200'000, 15);
    else if (test == "math-partial-sums") out.duration_ms = run_compute_test(b, 150'000, 22);
    else if (test == "math-spectral-norm") out.duration_ms = run_compute_test(b, 90'000, 35);
    else if (test == "bitops-3bit") out.duration_ms = run_compute_test(b, 300'000, 8);
    else if (test == "string-tagcloud") out.duration_ms = run_compute_test(b, 80'000, 40);
    else if (test == "string-base64") out.duration_ms = run_compute_test(b, 110'000, 24);
    else if (test == "regexp-dna") out.duration_ms = run_compute_test(b, 60'000, 55);
    else if (test == "crypto-sha1") out.duration_ms = run_compute_test(b, 130'000, 21);
    else if (test == "3d-cube") out.duration_ms = run_compute_test(b, 95'000, 33);
    else if (test == "array-ops") out.duration_ms = run_compute_test(b, 120'000, 18);
    else if (test == "object-ops") out.duration_ms = run_compute_test(b, 120'000, 26);
    else if (test == "json-serialize") out.duration_ms = run_json_test(b, 8'000);
    else if (test == "dom-attr") out.duration_ms = run_dom_attr_test(b, 20'000);
    else if (test == "dom-modify") out.duration_ms = run_dom_modify_test(b, 12'000);
    else if (test == "dom-query") out.duration_ms = run_dom_query_test(b, 30'000);
    else if (test == "dom-traverse") out.duration_ms = run_dom_traverse_test(b, 1'500);
    else throw std::invalid_argument("unknown dromaeo test: " + test);
    return out;
}

double run_worker_bench(rt::browser& b, int n)
{
    for (int i = 0; i < n; ++i) {
        b.register_worker_script("bench" + std::to_string(i) + ".js",
                                 [](rt::context& ctx) { ctx.consume(50 * sim::us); });
    }
    struct bench_state {
        int imported = 0;
        double last_import_ms = 0.0;
    };
    auto st = std::make_shared<bench_state>();
    // worker_script_imported fires once per worker under every defense
    // (under JSKernel the user import happens inside the kernel bootstrap,
    // whose import emits the event), so the timings are comparable.
    b.bus().subscribe([st, &b](const rt::rt_event& e) {
        if (e.kind == rt::rt_event_kind::worker_script_imported) {
            ++st->imported;
            st->last_import_ms = sim::to_ms(b.sim().now());
        }
    });
    const double t0 = sim::to_ms(b.sim().now());
    b.main().post_task(0, [&b, n] {
        for (int i = 0; i < n; ++i) {
            (void)b.main().apis().create_worker("bench" + std::to_string(i) + ".js");
        }
    });
    b.run_until(30 * sim::sec);
    return st->imported > 0 ? st->last_import_ms - t0 : 0.0;
}

std::unordered_map<std::string, double> build_compat_page(rt::browser& b,
                                                          std::uint64_t site_seed,
                                                          bool dynamic_ads)
{
    sim::rng rng(site_seed);
    b.main().post_task(0, [&] {
        auto& apis = b.main().apis();
        const int sections = static_cast<int>(rng.uniform(3, 9));
        for (int s = 0; s < sections; ++s) {
            auto section = apis.create_element("section");
            apis.set_attribute(section, "id", "s" + std::to_string(s));
            for (int i = 0; i < 6; ++i) {
                auto p = apis.create_element("p");
                p->text = "lorem ipsum block " + std::to_string(s * 6 + i);
                apis.append_child(section, p);
            }
            apis.append_child(b.doc().root(), section);
        }
        if (dynamic_ads) {
            // Ad slots rotate creatives per visit: unique URLs, campaign ids
            // and copy text, enough to pull the similarity under 99%.
            const int ads = static_cast<int>(rng.uniform(4, 9));
            for (int a = 0; a < ads; ++a) {
                auto ad = apis.create_element("iframe");
                const auto creative = std::to_string(rng.uniform(0, 1'000'000));
                apis.set_attribute(ad, "src", "https://ads.example/slot" + creative);
                apis.set_attribute(ad, "data-campaign", "c" + creative);
                auto copy = apis.create_element("span");
                copy->text = "deal " + creative + " ends " +
                             std::to_string(rng.uniform(1, 28)) + " days";
                apis.append_child(ad, copy);
                apis.append_child(b.doc().root(), ad);
            }
        }
    });
    b.run();
    return b.doc().token_bag();
}

}  // namespace jsk::workloads
