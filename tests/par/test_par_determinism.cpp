// Deterministic-merge suite (ISSUE acceptance): the CVE-matrix and chaos
// sweeps must emit byte-identical aggregates at --jobs 1, 2 and 8, because
// every job is a pure function of its index and the merge walks results in
// canonical job order. Also pins: witness-cached sweeps over >= 2 CVEs match
// an *uncached* baseline byte-for-byte (the regression for cache keys that
// omit the program identity), and the wave-parallel DFS is jobs-invariant.
//
// Sized for tier-1: a trimmed walk count / cell product. The exhaustive
// sweeps stay in the `explore`-labelled suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attacks/chaos_sweep.h"
#include "attacks/explore_sweep.h"
#include "par/cache.h"
#include "par/explore_par.h"
#include "par/pool.h"

namespace {

using namespace jsk;

std::string matrix_json_at(std::size_t jobs, std::uint64_t walks,
                           attacks::matrix_options base = {})
{
    base.jobs = jobs;
    return attacks::cve_matrix_json(attacks::explore_cve_matrix(walks, base));
}

TEST(par_determinism, cve_matrix_bytes_identical_at_jobs_1_2_8)
{
    attacks::matrix_options opt;
    opt.explore.seed = 101;
    for (const std::uint64_t walks : {2u, 8u}) {
        const std::string serial = matrix_json_at(1, walks, opt);
        EXPECT_FALSE(serial.empty());
        EXPECT_EQ(matrix_json_at(2, walks, opt), serial) << walks << " walks";
        EXPECT_EQ(matrix_json_at(8, walks, opt), serial) << walks << " walks";
    }
}

TEST(par_determinism, cve_matrix_cached_resweep_matches_uncached_baseline)
{
    // The matrix covers every CVE, so this sweep is the aliasing regression
    // for the cache key's `program` field: before the key carried the CVE id,
    // one CVE's walk-0 outcome was recalled for every other CVE under the
    // same defense. The ground truth is an *uncached* serial run — comparing
    // two cached sweeps to each other would let identically-corrupted bytes
    // pass.
    for (const std::uint64_t walks : {2u, 8u}) {
        SCOPED_TRACE(std::to_string(walks) + " walks");
        attacks::matrix_options opt;
        opt.explore.seed = 101;
        const std::string baseline = matrix_json_at(1, walks, opt);

        par::result_cache<attacks::cve_trial_outcome> cache;
        opt.cache = &cache;
        EXPECT_EQ(matrix_json_at(1, walks, opt), baseline);
        const auto cold = cache.snapshot();
        EXPECT_GT(cold.entries, 0u);
        // Every cold lookup must miss: lookup keys (walk-0 and seeded) are
        // unique per (cve, defense, walk), and replay keys are insert-only. A
        // cold hit means two CVEs' trials shared a key — the aliasing this
        // test exists to catch, even when the recalled outcome happens to
        // have the same bytes.
        const std::uint64_t jobs_per_sweep = attacks::cve_ids().size() * 2 * walks;
        EXPECT_EQ(cold.hits, 0u);
        EXPECT_EQ(cold.misses, jobs_per_sweep);

        EXPECT_EQ(matrix_json_at(2, walks, opt), baseline);
        EXPECT_EQ(matrix_json_at(8, walks, opt), baseline);
        const auto warm = cache.snapshot();
        // The re-sweeps recall instead of re-simulating: every job's single
        // lookup hits, and no new entries appear.
        EXPECT_EQ(warm.hits, 2 * jobs_per_sweep);
        EXPECT_EQ(warm.misses, cold.misses);
        EXPECT_EQ(warm.entries, cold.entries);
    }
}

TEST(par_determinism, chaos_matrix_bytes_identical_at_jobs_1_2_8)
{
    for (const auto& [cves, plans] : {std::pair{2, 3}, std::pair{4, 4}}) {
        const auto cells = attacks::default_chaos_cells(cves, plans);
        ASSERT_EQ(cells.size(), static_cast<std::size_t>(cves * 2 * plans));
        attacks::chaos_matrix_options opt;
        opt.jobs = 1;
        const std::string serial = attacks::chaos_matrix_json(run_chaos_matrix(cells, opt));
        opt.jobs = 2;
        EXPECT_EQ(attacks::chaos_matrix_json(run_chaos_matrix(cells, opt)), serial) << cves;
        opt.jobs = 8;
        EXPECT_EQ(attacks::chaos_matrix_json(run_chaos_matrix(cells, opt)), serial) << cves;
    }
}

TEST(par_determinism, chaos_matrix_cached_resweep_matches_uncached_baseline)
{
    // >= 2 CVEs is load-bearing: default_chaos_cells gives every cell the
    // same browser_seed, so before the key carried cell.cve, CVE #2's cells
    // recalled CVE #1's cached results. The uncached run is the ground truth.
    const auto cells = attacks::default_chaos_cells(/*cves=*/2, /*plans=*/2);
    attacks::chaos_matrix_options opt;
    opt.jobs = 1;
    const std::string baseline = attacks::chaos_matrix_json(run_chaos_matrix(cells, opt));

    par::result_cache<attacks::chaos_cell_result> cache;
    opt.jobs = 2;
    opt.cache = &cache;
    const std::string first = attacks::chaos_matrix_json(run_chaos_matrix(cells, opt));
    EXPECT_EQ(first, baseline);
    const auto cold = cache.snapshot();
    EXPECT_EQ(cold.entries, cells.size());
    EXPECT_EQ(cold.hits, 0u);

    opt.jobs = 4;
    const std::string second = attacks::chaos_matrix_json(run_chaos_matrix(cells, opt));
    EXPECT_EQ(second, baseline);
    EXPECT_EQ(cache.snapshot().hits, cells.size());
    EXPECT_EQ(cache.snapshot().entries, cells.size());
}

TEST(par_determinism, chaos_matrix_merges_per_shard_metrics)
{
    const auto cells = attacks::default_chaos_cells(/*cves=*/1, /*plans=*/2);
    attacks::chaos_matrix_options opt;
    opt.jobs = 2;
    const auto m = run_chaos_matrix(cells, opt);
    ASSERT_EQ(m.results.size(), cells.size());
    // The fold must equal the sum of the per-shard registries.
    std::uint64_t tasks = 0;
    for (const auto& r : m.results) {
        obs::registry shard = r.metrics;  // per-shard instance, never shared
        tasks += shard.get_counter("sim.tasks_executed").value();
    }
    obs::registry merged = m.merged_metrics;
    EXPECT_EQ(merged.get_counter("sim.tasks_executed").value(), tasks);
    EXPECT_GT(tasks, 0u);
}

TEST(par_determinism, wave_dfs_is_jobs_invariant)
{
    const auto program =
        attacks::cve_trigger_program("CVE-2014-1719", /*with_jskernel=*/false);
    par::explore_options opt;
    opt.base.max_schedules = 24;
    opt.base.preemption_budget = 1;

    opt.jobs = 2;
    const auto a = par::explore_dfs(program, opt);
    opt.jobs = 8;
    const auto b = par::explore_dfs(program, opt);

    EXPECT_EQ(a.schedules_run, b.schedules_run);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.exhausted, b.exhausted);
    ASSERT_EQ(a.failing.has_value(), b.failing.has_value());
    if (a.failing) {
        EXPECT_EQ(a.failing->str(), b.failing->str());
        EXPECT_EQ(a.failure_detail, b.failure_detail);
    }
    EXPECT_GT(a.schedules_run, 0u);
}

TEST(par_determinism, wave_dfs_counts_pinned_across_jobs_with_and_without_dpor)
{
    // The needle program violates mid-tree (run 94 plain, run 4 under DPOR),
    // so these pins exercise both merge rules the wave driver must honor:
    // schedules_run is charged only up to and including the canonical first
    // violation, and pruned folds only the completed runs preceding it —
    // runs after the winner in an already-dispatched wave contribute nothing.
    const auto program = attacks::needle_search_program(10);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        par::explore_options opt;
        opt.base.max_schedules = 100'000;
        opt.jobs = jobs;
        const auto plain = par::explore_dfs(program, opt);
        ASSERT_TRUE(plain.failing.has_value()) << "jobs " << jobs;
        EXPECT_EQ(plain.schedules_run, 94u) << "jobs " << jobs;
        EXPECT_EQ(plain.pruned, 0u) << "jobs " << jobs;
        EXPECT_EQ(plain.failing->str(), "11") << "jobs " << jobs;

        opt.base.dpor = true;
        const auto reduced = par::explore_dfs(program, opt);
        ASSERT_TRUE(reduced.failing.has_value()) << "jobs " << jobs;
        EXPECT_EQ(reduced.schedules_run, 4u) << "jobs " << jobs;
        EXPECT_EQ(reduced.pruned, 135u) << "jobs " << jobs;
        EXPECT_EQ(reduced.failing->str(), "11") << "jobs " << jobs;
    }
}

TEST(par_determinism, wave_dfs_jobs_1_is_the_serial_path)
{
    const auto program =
        attacks::cve_trigger_program("CVE-2014-1719", /*with_jskernel=*/false);
    par::explore_options opt;
    opt.base.max_schedules = 12;
    opt.base.preemption_budget = 1;
    opt.jobs = 1;
    const auto wave = par::explore_dfs(program, opt);
    const auto serial = sim::explore::explore_dfs(program, opt.base);
    EXPECT_EQ(wave.schedules_run, serial.schedules_run);
    EXPECT_EQ(wave.pruned, serial.pruned);
    EXPECT_EQ(wave.exhausted, serial.exhausted);
    EXPECT_EQ(wave.failing.has_value(), serial.failing.has_value());
}

}  // namespace
