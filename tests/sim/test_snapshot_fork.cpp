// Fork-vs-fresh differential suite — the headline guarantee of jsk::core.
//
// A trial served from a copy-on-write fork of a sealed world snapshot must
// be *indistinguishable* from the same trial in a from-scratch world: same
// vuln outcome, same recorded schedule, same kernel journal bytes, same
// Chrome trace bytes, same metrics registry dump. Anything less and the
// snapshot path is not a throughput knob but a silent semantics change.
//
// The suite drives the real sweep entry points (run_cve_trial_fresh /
// run_cve_trial_forked, run_chaos_trial / run_chaos_trial_forked) across
// every Table-I CVE and every defense column, reusing one snapshot per
// world recipe — so each snapshot serves many forks, which is exactly the
// production access pattern and the hardest case for restore correctness.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/chaos_sweep.h"
#include "attacks/explore_sweep.h"
#include "core/arena.h"
#include "core/snapshot.h"
#include "core/world.h"
#include "defenses/defense.h"
#include "faults/plan.h"

namespace {

using namespace jsk;

#define REQUIRE_ARENA()                                                   \
    do {                                                                  \
        if (!core::arena::supported())                                    \
            GTEST_SKIP() << "no arena address-space support on this host"; \
    } while (0)

/// Every defense column of the differential product: no defense at all
/// ("plain") plus each Table-I comparator.
std::vector<std::optional<defenses::defense_id>> defense_columns()
{
    std::vector<std::optional<defenses::defense_id>> cols;
    cols.emplace_back(std::nullopt);
    for (const auto id : defenses::all_defense_ids()) cols.emplace_back(id);
    return cols;
}

std::string column_name(const std::optional<defenses::defense_id>& d)
{
    return d ? defenses::to_string(*d) : "plain";
}

// --- explore trials: all 12 CVEs x all defenses ------------------------------

TEST(snapshot_fork, explore_differential_all_cves_all_defenses)
{
    REQUIRE_ARENA();
    core::snapshot_cache snaps;
    core::fork_stats st;

    // Two walk shapes per cell: the deterministic tail-first walk (the
    // matrix's walk 0) and a seeded random walk — so both controller tail
    // policies cross the fork boundary.
    std::vector<attacks::cve_walk_spec> walks(2);
    walks[1].tail = sim::explore::controller::tail_policy::random;
    walks[1].walk_seed = 0xD1FFu;

    std::size_t cells = 0;
    for (const auto& cve : attacks::cve_ids()) {
        for (const auto& defense : defense_columns()) {
            attacks::cve_trial_spec spec;
            spec.cve = cve;
            spec.defense = defense;
            for (const auto& walk : walks) {
                const auto fresh = attacks::run_cve_trial_fresh(spec, walk);
                core::world_snapshot& snap =
                    snaps.get(attacks::cve_world_recipe(spec), &st);
                const auto forked =
                    attacks::run_cve_trial_forked(snap, spec, walk, &st);
                ASSERT_EQ(forked.triggered, fresh.triggered)
                    << cve << " / " << column_name(defense);
                ASSERT_EQ(forked.decisions, fresh.decisions)
                    << cve << " / " << column_name(defense);
            }
            ++cells;
        }
    }
    EXPECT_EQ(cells, attacks::cve_ids().size() * defense_columns().size());
    // Every spec shares one world recipe (defenses install per fork), so
    // the whole product is served by a single snapshot.
    EXPECT_EQ(snaps.size(), 1u);
    EXPECT_EQ(st.snapshots, 1u);
    EXPECT_EQ(st.forks, st.restores);
    EXPECT_EQ(st.forks, cells * walks.size());
}

// --- chaos trials: full oracle comparison ------------------------------------

void expect_chaos_equal(const attacks::chaos_trial_result& forked,
                        const attacks::chaos_trial_result& fresh,
                        const std::string& label)
{
    EXPECT_EQ(forked.triggered, fresh.triggered) << label;
    EXPECT_EQ(forked.hit_task_cap, fresh.hit_task_cap) << label;
    EXPECT_EQ(forked.tasks_executed, fresh.tasks_executed) << label;
    EXPECT_EQ(forked.faults_injected, fresh.faults_injected) << label;
    EXPECT_EQ(forked.watchdog_fires, fresh.watchdog_fires) << label;
    EXPECT_EQ(forked.fetch_retries, fresh.fetch_retries) << label;
    EXPECT_EQ(forked.journal_json, fresh.journal_json) << label;
    EXPECT_EQ(forked.trace_json, fresh.trace_json) << label;
    EXPECT_EQ(forked.observations, fresh.observations) << label;
    EXPECT_EQ(forked.metrics.to_json(), fresh.metrics.to_json()) << label;
}

TEST(snapshot_fork, chaos_differential_all_cves_both_kernels)
{
    REQUIRE_ARENA();
    const attacks::chaos_options opt;
    core::snapshot_cache snaps;
    core::fork_stats st;

    std::size_t trial = 0;
    for (const auto& cve : attacks::cve_ids()) {
        for (const bool with_kernel : {false, true}) {
            // Rotate through sampled plans so faults of every family cross
            // the fork boundary without running the full plan product here.
            const faults::plan p = faults::plan::sample(trial % 6);
            const auto fresh = attacks::run_chaos_trial(cve, with_kernel, p, 17, opt);
            core::world_snapshot& snap =
                snaps.get(attacks::chaos_world_recipe(with_kernel, 17, opt), &st);
            const auto forked =
                attacks::run_chaos_trial_forked(snap, cve, p, opt, &st);
            expect_chaos_equal(forked, fresh,
                               cve + (with_kernel ? "/jskernel" : "/plain"));
            ++trial;
        }
    }
    // One snapshot per defense shape: plain and kernel-booted worlds.
    EXPECT_EQ(snaps.size(), 2u);
    EXPECT_EQ(st.snapshots, 2u);
    EXPECT_EQ(st.forks, trial);
    EXPECT_EQ(st.restores, trial);
}

TEST(snapshot_fork, chaos_random_programs_differential)
{
    REQUIRE_ARENA();
    const attacks::chaos_options opt;
    core::snapshot_cache snaps;

    for (const bool with_kernel : {false, true}) {
        core::world_snapshot& snap =
            snaps.get(attacks::chaos_world_recipe(with_kernel, 17, opt));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const faults::plan p = faults::plan::sample(seed);
            const auto fresh = attacks::run_chaos_program(seed, with_kernel, p, 17, opt);
            const auto forked = attacks::run_chaos_program_forked(snap, seed, p, opt);
            expect_chaos_equal(forked, fresh,
                               "program seed " + std::to_string(seed) +
                                   (with_kernel ? "/jskernel" : "/plain"));
            // Random programs exercise the observation-log oracle; make
            // sure the comparison wasn't trivially empty-vs-empty.
            EXPECT_FALSE(fresh.observations.empty());
        }
    }
}

// --- sibling isolation -------------------------------------------------------

TEST(snapshot_fork, sibling_forks_do_not_leak_into_each_other)
{
    REQUIRE_ARENA();
    // Interleave very different trials from one snapshot, then re-run the
    // first trial: if any sibling's mutations survived its restore, the
    // re-run diverges from the original.
    const attacks::chaos_options opt;
    auto snap = core::snapshot_world(attacks::chaos_world_recipe(true, 17, opt));
    const std::string cve = attacks::cve_ids().front();

    const auto first =
        attacks::run_chaos_trial_forked(*snap, cve, faults::plan::sample(0), opt);
    for (std::uint64_t i = 1; i <= 3; ++i) {
        (void)attacks::run_chaos_program_forked(*snap, i, faults::plan::sample(i), opt);
        (void)attacks::run_chaos_trial_forked(*snap, attacks::cve_ids()[i],
                                              faults::plan::sample(5 - i), opt);
    }
    const auto again =
        attacks::run_chaos_trial_forked(*snap, cve, faults::plan::sample(0), opt);
    expect_chaos_equal(again, first, "re-run after sibling forks");
}

// --- page-session worlds -----------------------------------------------------

TEST(snapshot_fork, site_preloaded_worlds_fork_identically)
{
    REQUIRE_ARENA();
    // The shape snapshots exist for: a world with synthetic page sessions
    // preloaded to quiescence, where trial deadlines are now()-relative.
    for (const std::vector<std::uint64_t>& ranks :
         {std::vector<std::uint64_t>{0, 1, 2}, std::vector<std::uint64_t>{0, 1, 2, 3}}) {
        attacks::cve_trial_spec spec;
        spec.cve = attacks::cve_ids().front();
        spec.site_ranks = ranks;
        core::fork_stats st;
        auto snap = core::snapshot_world(attacks::cve_world_recipe(spec), &st);
        EXPECT_GT(st.image_bytes, 0u);

        for (const auto& defense : defense_columns()) {
            spec.defense = defense;
            attacks::cve_walk_spec walk;
            const auto fresh = attacks::run_cve_trial_fresh(spec, walk);
            const auto forked = attacks::run_cve_trial_forked(*snap, spec, walk, &st);
            EXPECT_EQ(forked.triggered, fresh.triggered)
                << ranks.size() << " sites, " << column_name(defense);
            EXPECT_EQ(forked.decisions, fresh.decisions)
                << ranks.size() << " sites, " << column_name(defense);
        }
    }
}

// --- arena/snapshot core semantics ------------------------------------------

TEST(snapshot_fork, restore_rolls_back_anchor_mutations_and_bump_pointer)
{
    REQUIRE_ARENA();
    core::fork_stats st;
    core::world_snapshot snap;
    snap.capture([] { return new std::string("sealed"); }, &st);
    ASSERT_TRUE(snap.sealed());
    EXPECT_EQ(st.snapshots, 1u);
    EXPECT_GT(st.image_bytes, 0u);

    auto* s = static_cast<std::string*>(snap.anchor());
    ASSERT_TRUE(core::arena::contains(s));
    EXPECT_EQ(*s, "sealed");
    const std::size_t sealed_used = snap.heap().used();

    for (int round = 0; round < 3; ++round) {
        {
            core::fork fk(snap, &st);
            fk.step([&] {
                // Mutate the anchored object and allocate fresh arena
                // storage; both must vanish with the restore.
                s->assign("mutated in round " + std::to_string(round));
                auto* scratch = new std::vector<std::uint64_t>(1024, round);
                EXPECT_TRUE(core::arena::contains(scratch));
            });
            EXPECT_NE(*s, "sealed");
        }
        EXPECT_EQ(*s, "sealed") << "round " << round;
        EXPECT_EQ(snap.heap().used(), sealed_used) << "round " << round;
    }
    EXPECT_EQ(st.forks, 3u);
    EXPECT_EQ(st.restores, 3u);
    EXPECT_GT(st.pages_restored, 0u);
}

TEST(snapshot_fork, scope_routes_allocations_and_guard_off_heap_stays_global)
{
    REQUIRE_ARENA();
    core::world_snapshot snap;
    snap.capture([] { return new int(7); });
    // Outside any scope, operator new must keep using the global heap.
    auto outside = std::make_unique<std::string>("global heap");
    EXPECT_FALSE(core::arena::contains(outside.get()));
    EXPECT_TRUE(core::arena::contains(snap.anchor()));
}

}  // namespace
