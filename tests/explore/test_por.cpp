// Soundness of partial-order reduction (sim/por.h + the sleep-set DPOR in
// sim/explore.cpp), headed by the regression the module exists for: the old
// posts-only footprint judged two same-resource racers independent and
// pruned away the only schedule expressing the bug. options::legacy_footprint
// preserves that heuristic so these tests *demonstrate* the lost witness,
// then show the sound footprint recovering it — at the raw-simulator level,
// through a browser SharedArrayBuffer race, and through a CVE monitor sink.
// The differential half checks the reduction itself: with DPOR on, every CVE
// witness is still found, with strictly fewer schedules and real pruning,
// and randomized programs agree with the unreduced explorer.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attacks/explore_sweep.h"
#include "core/arena.h"
#include "kernel/journal.h"
#include "runtime/browser.h"
#include "runtime/vuln.h"
#include "sim/explore.h"
#include "sim/por.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace {

namespace sim = jsk::sim;
namespace explore = jsk::sim::explore;
namespace por = jsk::sim::por;
using sim::ms;

// --- the headline regression: same-resource writers on two threads -------------

/// Two tasks on different threads, neither posting anything, both writing the
/// same resource key. The violation only expresses when the non-default
/// order runs — exactly the swap the old footprint pruned.
explore::program same_key_writers(std::string* order)
{
    return [order](explore::controller& ctl) {
        sim::simulation s;
        const auto ta = s.create_thread("a");
        const auto tb = s.create_thread("b");
        ctl.attach(s);
        order->clear();
        constexpr std::uint64_t key = por::sab_key(7, 0);
        s.post(ta, 5 * ms, [&s, order] {
            s.note_access(key, /*write=*/true);
            order->push_back('A');
        }, "A");
        s.post(tb, 5 * ms, [&s, order] {
            s.note_access(key, /*write=*/true);
            order->push_back('B');
        }, "B");
        s.run();
        return explore::run_outcome{*order == "BA", "B overwrote A's slot"};
    };
}

TEST(por_regression, legacy_footprint_misses_the_same_key_witness)
{
    std::string order;

    // Ground truth: the unreduced DFS finds the swap.
    const auto plain = explore::explore_dfs(same_key_writers(&order));
    ASSERT_TRUE(plain.failing.has_value());

    // The old posts-only footprint: neither task posts, so the swap is
    // "independent" — pruned, witness lost, tree declared exhausted.
    explore::options legacy;
    legacy.dpor = true;
    legacy.legacy_footprint = true;
    const auto missed = explore::explore_dfs(same_key_writers(&order), legacy);
    EXPECT_FALSE(missed.failing.has_value());
    EXPECT_TRUE(missed.exhausted);
    EXPECT_EQ(missed.schedules_run, 1u);
    EXPECT_EQ(missed.pruned, 1u);

    // The sound footprint sees the write/write conflict and keeps the swap.
    explore::options fixed;
    fixed.dpor = true;
    const auto found = explore::explore_dfs(same_key_writers(&order), fixed);
    ASSERT_TRUE(found.failing.has_value());
    EXPECT_EQ(*found.failing, *plain.failing);
}

TEST(por_regression, browser_sab_race_is_dependent_under_the_sound_footprint)
{
    // Reader on a worker-like context races a writer on main over one SAB
    // slot; the violation is the read observing the pre-write value.
    const auto program = [](explore::controller& ctl) {
        jsk::rt::browser b{jsk::rt::chrome_profile()};
        jsk::rt::context& w = b.create_context("w", jsk::rt::context_kind::worker);
        ctl.attach(b.sim());
        auto buf = b.main().apis().create_shared_buffer(1);
        bool raced = false;
        b.main().post_task(5 * ms, [&] { b.main().apis().sab_store(buf, 0, 7.0, {}); });
        w.post_task(5 * ms, [&] { raced = (w.apis().sab_load(buf, 0, {}) == 0.0); });
        b.run();
        return explore::run_outcome{raced, "read saw the pre-write slot"};
    };

    const auto plain = explore::explore_dfs(program);
    ASSERT_TRUE(plain.failing.has_value());

    explore::options legacy;
    legacy.dpor = true;
    legacy.legacy_footprint = true;
    const auto missed = explore::explore_dfs(program, legacy);
    EXPECT_FALSE(missed.failing.has_value())
        << "legacy footprint should prune the SAB swap (that is the bug)";

    explore::options fixed;
    fixed.dpor = true;
    const auto found = explore::explore_dfs(program, fixed);
    ASSERT_TRUE(found.failing.has_value());
    EXPECT_EQ(*found.failing, *plain.failing);
}

TEST(por_regression, monitor_sink_race_is_dependent_under_the_sound_footprint)
{
    // CVE-2018-5092's shape reduced to its ordering core: fetch_freed on one
    // thread, fetch_aborted on another, monitor fires only freed-then-abort.
    // Neither task posts, so the legacy footprint prunes the trigger order.
    const auto program = [](explore::controller& ctl) {
        jsk::rt::browser b{jsk::rt::chrome_profile()};
        jsk::rt::vuln_registry vulns{b.bus()};
        jsk::rt::context& w = b.create_context("w", jsk::rt::context_kind::worker);
        ctl.attach(b.sim());
        b.main().post_task(5 * ms, [&] {
            jsk::rt::rt_event ev;
            ev.kind = jsk::rt::rt_event_kind::fetch_aborted;
            ev.thread = b.main().thread();
            ev.subject_id = 1;
            b.emit(ev);
        });
        w.post_task(5 * ms, [&] {
            jsk::rt::rt_event ev;
            ev.kind = jsk::rt::rt_event_kind::fetch_freed;
            ev.thread = w.thread();
            ev.subject_id = 1;
            b.emit(ev);
        });
        b.run();
        const auto* m = vulns.find("CVE-2018-5092");
        return explore::run_outcome{m != nullptr && m->triggered(),
                                    "abort delivered to freed fetch"};
    };

    const auto plain = explore::explore_dfs(program);
    ASSERT_TRUE(plain.failing.has_value());

    explore::options legacy;
    legacy.dpor = true;
    legacy.legacy_footprint = true;
    const auto missed = explore::explore_dfs(program, legacy);
    EXPECT_FALSE(missed.failing.has_value());

    explore::options fixed;
    fixed.dpor = true;
    const auto found = explore::explore_dfs(program, fixed);
    ASSERT_TRUE(found.failing.has_value());
    EXPECT_EQ(*found.failing, *plain.failing);
}

// --- access keys and watch masks ------------------------------------------------

TEST(por_keys, namespaces_are_disjoint_and_stable)
{
    EXPECT_NE(por::inbox_key(1), por::channel_key(0, 1));
    EXPECT_NE(por::sab_key(1, 0), por::sink_key(1));
    EXPECT_EQ(por::inbox_key(3) >> 56, 1u);
    EXPECT_EQ(por::channel_key(1, 2) >> 56, 2u);
    EXPECT_EQ(por::sab_key(1, 2) >> 56, 3u);
    EXPECT_EQ(por::sink_key(0) >> 56, 4u);
    EXPECT_NE(por::channel_key(1, 2), por::channel_key(2, 1));
    EXPECT_NE(por::sab_key(1, 2), por::sab_key(2, 1));
}

TEST(por_keys, watch_mask_slots_match_registry_order)
{
    using k = jsk::rt::rt_event_kind;
    jsk::rt::event_bus bus;
    jsk::rt::vuln_registry vulns{bus};
    const auto& monitors = vulns.monitors();
    ASSERT_EQ(monitors.size(), 12u);

    const auto slot_of = [&](const char* id) {
        for (std::size_t i = 0; i < monitors.size(); ++i) {
            if (monitors[i]->id() == id) return static_cast<std::uint32_t>(i);
        }
        ADD_FAILURE() << "no monitor " << id;
        return UINT32_MAX;
    };
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::fetch_freed),
              1u << slot_of("CVE-2018-5092"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::fetch_aborted),
              1u << slot_of("CVE-2018-5092"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::indexeddb_persisted_private),
              1u << slot_of("CVE-2017-7843"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::import_scripts_error),
              1u << slot_of("CVE-2015-7215"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::message_after_termination),
              1u << slot_of("CVE-2014-3194"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::terminate_during_dispatch),
              1u << slot_of("CVE-2014-1719"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::transferable_received),
              1u << slot_of("CVE-2014-1488"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::worker_error_event),
              1u << slot_of("CVE-2014-1487"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::page_reload),
              1u << slot_of("CVE-2013-6646"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::worker_created),
              1u << slot_of("CVE-2013-6646"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::worker_onmessage_assigned),
              1u << slot_of("CVE-2013-5602"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::xhr_request),
              1u << slot_of("CVE-2013-1714"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::cross_origin_script_imported),
              1u << slot_of("CVE-2011-1190"));
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::worker_double_termination),
              1u << slot_of("CVE-2010-4576"));
    // Kinds no monitor consumes stay silent.
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::message_posted), 0u);
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::fetch_started), 0u);
    EXPECT_EQ(jsk::rt::monitor_watch_mask(k::message_dropped), 0u);
}

// --- happens-before analysis ----------------------------------------------------

TEST(por_analysis, vector_clocks_capture_program_order_and_post_edges)
{
    explore::controller ctl({}, explore::controller::tail_policy::first);
    ctl.set_record_metadata(true);
    sim::simulation s;
    const auto ta = s.create_thread("a");
    const auto tb = s.create_thread("b");
    ctl.attach(s);
    // Step 0 (A1, thread a) posts C onto thread b; B1 (thread b) is
    // concurrent with A1; C is ordered after A1 by the post edge.
    s.post(ta, 1 * ms, [&s, tb] {
        s.post(tb, 10 * ms, [] {}, "C");
    }, "A1");
    s.post(tb, 2 * ms, [] {}, "B1");
    s.run();

    const por::analysis an(ctl);
    ASSERT_EQ(an.steps(), 3u);
    const auto& exec = ctl.exec_log();
    // Identify steps by label order: A1 ran at 1ms, B1 at 2ms, C at 10ms.
    std::size_t a1 = 0, b1 = 1, c = 2;
    ASSERT_EQ(exec[a1].thread, ta);
    ASSERT_EQ(exec[b1].thread, tb);
    ASSERT_EQ(exec[c].thread, tb);

    EXPECT_TRUE(an.happens_before(a1, c));   // post edge
    EXPECT_TRUE(an.happens_before(b1, c));   // program order on thread b
    EXPECT_FALSE(an.happens_before(c, a1));
    EXPECT_TRUE(an.concurrent(a1, b1));
    EXPECT_FALSE(an.concurrent(a1, c));
}

TEST(por_analysis, class_hash_is_invariant_under_independent_swaps)
{
    // Two independent tasks (disjoint keys) and one dependent pair (shared
    // key): swapping the independent pair preserves the class hash; swapping
    // the dependent pair changes it.
    const auto run_with = [](const explore::schedule& sched, std::uint64_t key_a,
                             std::uint64_t key_b) {
        explore::controller ctl(sched, explore::controller::tail_policy::first);
        ctl.set_record_metadata(true);
        sim::simulation s;
        const auto ta = s.create_thread("a");
        const auto tb = s.create_thread("b");
        ctl.attach(s);
        s.post(ta, 5 * ms, [&s, key_a] { s.note_access(key_a, true); }, "A");
        s.post(tb, 5 * ms, [&s, key_b] { s.note_access(key_b, true); }, "B");
        s.run();
        return por::analysis(ctl).class_hash();
    };
    explore::schedule def;     // default order
    explore::schedule swapped;
    swapped.choices = {1};

    const auto ka = por::sab_key(1, 0);
    const auto kb = por::sab_key(2, 0);
    EXPECT_EQ(run_with(def, ka, kb), run_with(swapped, ka, kb));
    EXPECT_NE(run_with(def, ka, ka), run_with(swapped, ka, ka));
}

// --- DPOR differential over the CVE matrix --------------------------------------

struct cve_budget {
    const char* id;
    std::uint64_t max_schedules;
};

// DFS budgets sized from measurement: enough for the *unreduced* DFS to find
// each witness, so the differential compares two complete searches.
const std::vector<cve_budget> k_cve_budgets{
    {"CVE-2018-5092", 64},   {"CVE-2017-7843", 64},  {"CVE-2015-7215", 64},
    {"CVE-2014-3194", 64},   {"CVE-2014-1719", 64},  {"CVE-2014-1488", 64},
    {"CVE-2014-1487", 64},   {"CVE-2013-6646", 64},  {"CVE-2013-5602", 64},
    {"CVE-2013-1714", 64},   {"CVE-2011-1190", 64},  {"CVE-2010-4576", 64},
};

TEST(por_differential, dpor_keeps_every_cve_witness_with_fewer_schedules)
{
    // Every CVE runs as a fresh-world program and, where the platform has an
    // arena, as the snapshot-served program the sweeps use: both must give
    // the same answers, schedule for schedule.
    for (const auto& [cve, budget] : k_cve_budgets) {
        std::vector<std::pair<std::string, explore::program>> inputs;
        inputs.emplace_back(cve, jsk::attacks::cve_trigger_program(cve, false));
        if (jsk::core::arena::supported()) {
            inputs.emplace_back(std::string(cve) + " (snapshot)",
                                jsk::attacks::cve_trigger_program_snap(cve, false));
        }
        for (const auto& [name, program] : inputs) {
            explore::options off;
            off.max_schedules = budget;
            const auto plain = explore::explore_dfs(program, off);
            ASSERT_TRUE(plain.failing.has_value())
                << name << ": unreduced DFS found no witness within " << budget;

            explore::options on;
            on.max_schedules = budget;
            on.dpor = true;
            const auto reduced = explore::explore_dfs(program, on);
            ASSERT_TRUE(reduced.failing.has_value())
                << name << ": DPOR pruned away the witness (unsound reduction)";
            EXPECT_LE(reduced.schedules_run, plain.schedules_run) << name;
            // The scripted exploits are timed to win their race outright, so
            // the very first schedule is already the witness in both modes —
            // the point of this differential is preservation (reduction never
            // loses a CVE), not acceleration. Search-time reduction is
            // measured on the needle family below, where the witness hides.
            EXPECT_EQ(plain.schedules_run, 1u) << name;
            EXPECT_EQ(reduced.schedules_run, 1u) << name;

            // Same bug: both witnesses shrink to schedules that reproduce it.
            const auto shrunk_plain = explore::shrink(*plain.failing, program);
            const auto shrunk_reduced = explore::shrink(*reduced.failing, program);
            EXPECT_TRUE(explore::replay(shrunk_plain, program).violated) << name;
            EXPECT_TRUE(explore::replay(shrunk_reduced, program).violated) << name;
        }
    }
}

TEST(por_differential, dpor_finds_the_buried_needle_witness_faster)
{
    // The search-hard family (attacks/explore_sweep.h): a two-flip witness at
    // the shallow decision points, buried under `noise` commuting tasks the
    // unreduced DFS explores first. DPOR reaches the needle in a constant
    // number of runs; the plain search grows with the noise, so the
    // reduction passes 10x from noise 8 on (median 15x over these sizes).
    // Exact counts are pinned — the traversal is canonical, so they are
    // stable by design.
    struct needle_row {
        int noise;
        std::uint64_t dfs;
        std::uint64_t dpor;
        std::uint64_t pruned;
    };
    const std::vector<needle_row> rows{
        {4, 16, 4, 18}, {6, 34, 4, 45}, {8, 60, 4, 84}, {10, 94, 4, 135}, {12, 136, 4, 198},
    };
    for (const needle_row& row : rows) {
        const auto program = jsk::attacks::needle_search_program(row.noise);

        explore::options off;
        off.max_schedules = 100'000;
        const auto plain = explore::explore_dfs(program, off);
        ASSERT_TRUE(plain.failing.has_value()) << "noise " << row.noise;
        EXPECT_EQ(plain.schedules_run, row.dfs) << "noise " << row.noise;

        explore::options on = off;
        on.dpor = true;
        const auto reduced = explore::explore_dfs(program, on);
        ASSERT_TRUE(reduced.failing.has_value()) << "noise " << row.noise;
        EXPECT_EQ(reduced.schedules_run, row.dpor) << "noise " << row.noise;
        EXPECT_EQ(reduced.pruned, row.pruned) << "noise " << row.noise;
        EXPECT_EQ(*reduced.failing, *plain.failing) << "noise " << row.noise;
        EXPECT_TRUE(explore::replay(*reduced.failing, program).violated) << "noise " << row.noise;
    }
}

TEST(por_differential, dpor_strictly_reduces_schedules_on_exhaustive_search)
{
    // On a program DFS can exhaust, DPOR must reach the same verdict (no
    // witness) over strictly fewer runs. Three independent racers plus one
    // communicating pair keeps the full tree small but non-trivial.
    const auto program = [](explore::controller& ctl) {
        sim::simulation s;
        const auto ta = s.create_thread("a");
        const auto tb = s.create_thread("b");
        ctl.attach(s);
        s.post(ta, 1 * ms, [&s] { s.consume(10 * sim::us); });
        s.post(tb, 1 * ms, [&s] { s.consume(10 * sim::us); });
        s.post(ta, 5 * ms, [&s, tb] { s.post(tb, 0, [] {}); });
        s.post(tb, 5 * ms, [&s] { s.consume(10 * sim::us); });
        s.run();
        return explore::run_outcome{};
    };
    explore::options off;
    off.max_schedules = 10'000;
    const auto plain = explore::explore_dfs(program, off);
    ASSERT_TRUE(plain.exhausted);
    ASSERT_FALSE(plain.failing.has_value());

    explore::options on = off;
    on.dpor = true;
    const auto reduced = explore::explore_dfs(program, on);
    EXPECT_TRUE(reduced.exhausted);
    EXPECT_FALSE(reduced.failing.has_value());
    EXPECT_LT(reduced.schedules_run, plain.schedules_run);
    EXPECT_GT(reduced.pruned, 0u);
}

// --- randomized-program fuzz: reduced and unreduced searches agree --------------

TEST(por_fuzz, randomized_programs_agree_on_witness_existence)
{
    // Random little concurrent programs: 2-3 threads, 4-6 tasks, random
    // shared-key writes, some cross-posts. The violation is a specific
    // access order on one key. DPOR and the unreduced DFS must agree on
    // whether any schedule expresses it, and a found witness must replay.
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
        sim::rng gen(sim::split(0xf0f0f0f0ULL, trial));
        const int threads = static_cast<int>(gen.uniform(2, 3));
        const int tasks = static_cast<int>(gen.uniform(4, 6));
        struct task_spec {
            int thread;
            std::uint64_t key;
            bool post_next;
        };
        std::vector<task_spec> specs;
        for (int i = 0; i < tasks; ++i) {
            specs.push_back(task_spec{
                static_cast<int>(gen.uniform(0, threads - 1)),
                por::sab_key(9, static_cast<std::uint64_t>(gen.uniform(0, 1))),
                gen.uniform(0, 3) == 0,
            });
        }
        // The oracle may only observe orderings the footprint declares
        // dependent — tasks writing the *same* key. Different-key tasks are
        // genuinely independent, so a predicate on their relative order
        // would be flipped by perfectly sound commutations. Watch the
        // writer sequence of one key and ask for its fully-reversed pair.
        const std::uint64_t watched = por::sab_key(9, 0);
        int lo = -1, hi = -1;
        for (int i = 0; i < tasks; ++i) {
            if (specs[static_cast<std::size_t>(i)].key != watched) continue;
            if (lo < 0) lo = i;
            hi = i;
        }
        const auto program = [&](explore::controller& ctl) {
            sim::simulation s;
            std::vector<sim::thread_id> tid;
            for (int t = 0; t < threads; ++t) {
                tid.push_back(s.create_thread("t" + std::to_string(t)));
            }
            ctl.attach(s);
            auto last_key_writer = std::make_shared<std::vector<int>>();
            for (int i = 0; i < tasks; ++i) {
                const auto& spec = specs[static_cast<std::size_t>(i)];
                s.post(tid[static_cast<std::size_t>(spec.thread)], 5 * ms,
                       [&s, &tid, spec, i, last_key_writer, threads, watched] {
                           s.note_access(spec.key, /*write=*/true);
                           if (spec.key == watched) last_key_writer->push_back(i);
                           if (spec.post_next) {
                               s.post(tid[static_cast<std::size_t>(
                                          (spec.thread + 1) % threads)],
                                      0, [&s] { s.consume(10 * sim::us); });
                           }
                       });
            }
            s.run();
            // Violation: on the watched key, the highest-numbered writer ran
            // first and the lowest-numbered ran last (a fully reversed pair).
            bool violated = false;
            if (lo >= 0 && hi > lo && last_key_writer->size() >= 2) {
                violated = last_key_writer->front() == hi &&
                           last_key_writer->back() == lo;
            }
            return explore::run_outcome{violated, "reversed pair"};
        };

        explore::options off;
        off.max_schedules = 4'000;
        const auto plain = explore::explore_dfs(program, off);
        explore::options on = off;
        on.dpor = true;
        const auto reduced = explore::explore_dfs(program, on);

        ASSERT_EQ(plain.failing.has_value(), reduced.failing.has_value())
            << "trial " << trial << ": DPOR changed witness existence"
            << " (plain " << plain.schedules_run << " runs, reduced "
            << reduced.schedules_run << ")";
        if (reduced.failing.has_value()) {
            EXPECT_TRUE(explore::replay(*reduced.failing, program).violated)
                << "trial " << trial;
        }
        if (plain.exhausted && reduced.exhausted) {
            EXPECT_LE(reduced.schedules_run, plain.schedules_run) << "trial " << trial;
        }
    }
}

// --- coverage-guided random walks -----------------------------------------------

TEST(por_coverage, coverage_mode_is_deterministic_and_counts_classes)
{
    const auto program = [](explore::controller& ctl) {
        sim::simulation s;
        const auto ta = s.create_thread("a");
        const auto tb = s.create_thread("b");
        ctl.attach(s);
        for (int i = 0; i < 3; ++i) {
            s.post(ta, 1 * ms, [&s] { s.note_access(por::sab_key(1, 0), true); });
            s.post(tb, 1 * ms, [&s] { s.note_access(por::sab_key(1, 0), true); });
        }
        s.run();
        return explore::run_outcome{};
    };
    explore::options opt;
    opt.max_schedules = 16;
    opt.seed = 7;
    opt.coverage = true;
    const auto first = explore::explore_random(program, opt);
    const auto second = explore::explore_random(program, opt);
    EXPECT_EQ(first.schedules_run, second.schedules_run);
    EXPECT_EQ(first.coverage_classes, second.coverage_classes);
    EXPECT_EQ(first.coverage_novel, second.coverage_novel);
    EXPECT_GT(first.coverage_classes, 1u);  // the swaps produce distinct classes
    EXPECT_GT(first.coverage_novel, 0u);
}

TEST(por_coverage, coverage_walks_still_find_cve_witnesses)
{
    for (const char* cve : {"CVE-2018-5092", "CVE-2014-1719"}) {
        explore::options opt;
        opt.max_schedules = 16;
        opt.seed = 11;
        opt.coverage = true;
        const auto result =
            explore::explore_random(jsk::attacks::cve_trigger_program(cve, false), opt);
        ASSERT_TRUE(result.failing.has_value()) << cve;
    }
}

// --- journal fingerprint ---------------------------------------------------------

TEST(por_journal, class_hash_tracks_timeline_equality)
{
    jsk::kernel::journal a;
    jsk::kernel::journal b;
    jsk::kernel::kevent ev;
    ev.type = jsk::kernel::kevent_type::timeout;
    ev.predicted_time = 4.0;
    ev.label = "t0";
    a.record(ev);
    b.record(ev);
    EXPECT_EQ(a.class_hash(), b.class_hash());

    jsk::kernel::kevent other = ev;
    other.label = "t1";
    a.record(ev);
    b.record(other);
    EXPECT_NE(a.class_hash(), b.class_hash());

    // event_id differences are invisible, exactly like operator==.
    jsk::kernel::journal c;
    jsk::kernel::kevent renumbered = ev;
    renumbered.id = 999;
    c.record(renumbered);
    jsk::kernel::journal d;
    d.record(ev);
    EXPECT_EQ(c.class_hash(), d.class_hash());
}

}  // namespace
