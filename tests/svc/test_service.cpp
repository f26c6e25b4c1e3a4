// jsk::svc — sweep-service tests: the determinism contract (arrival order,
// worker count, snapshot mode and cache state all erased from response
// bytes), exact pinned warm-cache hit/miss accounting, multi-tenant
// metrics, pool resize between waves, and the framed wire conversation.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/explore_sweep.h"
#include "faults/plan.h"
#include "svc/service.h"

namespace {

using namespace jsk;
namespace fs = std::filesystem;

svc::job make_job(std::uint64_t client_id, const std::string& program,
                  const std::string& defense, const std::string& plan = "",
                  std::uint64_t seed = 17)
{
    svc::job j;
    j.client_id = client_id;
    j.key.seed = seed;
    j.key.plan = plan;
    j.key.decisions = "";
    j.key.defense = defense;
    j.key.program = program;
    return j;
}

/// The shared 4-job explore matrix: two CVEs x {plain, jskernel}.
std::vector<svc::job> matrix_jobs()
{
    const auto cves = attacks::cve_ids();
    return {
        make_job(1, cves[0], "plain"),
        make_job(2, cves[0], "jskernel"),
        make_job(3, cves[1], "plain"),
        make_job(4, cves[1], "jskernel"),
    };
}

svc::wave_result run_jobs(svc::service& s, std::vector<svc::job> jobs,
                          const std::string& tenant = "default")
{
    auto& sess = s.connect(tenant);
    for (auto& j : jobs) sess.submit(std::move(j));
    return sess.flush();
}

class service_test : public ::testing::Test {
protected:
    void SetUp() override
    {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::path(::testing::TempDir()) /
                (std::string("jsk_svc_service_") + info->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

// --- determinism contract ---------------------------------------------------

TEST_F(service_test, arrival_order_is_erased_from_response_bytes)
{
    svc::service a({});
    svc::service b({});
    auto jobs = matrix_jobs();
    const auto wave_a = run_jobs(a, jobs);
    std::reverse(jobs.begin(), jobs.end());
    const auto wave_b = run_jobs(b, std::move(jobs));

    EXPECT_EQ(wave_a.merged_json, wave_b.merged_json);
    ASSERT_EQ(wave_a.results.size(), wave_b.results.size());
    for (std::size_t i = 0; i < wave_a.results.size(); ++i) {
        EXPECT_EQ(wave_a.jobs[i].client_id, wave_b.jobs[i].client_id);
        EXPECT_EQ(wave_a.results[i], wave_b.results[i]);
    }
}

TEST_F(service_test, worker_count_is_erased_from_response_bytes)
{
    std::string baseline;
    for (const std::size_t jobs : {1u, 2u, 8u}) {
        svc::service_options opt;
        opt.jobs = jobs;
        svc::service s(opt);
        const auto wave = run_jobs(s, matrix_jobs());
        if (baseline.empty()) {
            baseline = wave.merged_json;
        } else {
            EXPECT_EQ(wave.merged_json, baseline) << "jobs=" << jobs;
        }
    }
    EXPECT_FALSE(baseline.empty());
}

TEST_F(service_test, snapshot_serving_is_a_throughput_knob_only)
{
    svc::service_options no_snaps;
    no_snaps.snapshots = false;
    svc::service fresh_worlds(no_snaps);
    svc::service snapshotted({});
    EXPECT_EQ(run_jobs(fresh_worlds, matrix_jobs()).merged_json,
              run_jobs(snapshotted, matrix_jobs()).merged_json);
}

// --- cache accounting -------------------------------------------------------

TEST_F(service_test, warm_cache_recalls_with_exact_pinned_hit_counts)
{
    // Two waves, each in its own store: the shared matrix plus a duplicate
    // witness, and every CVE x {plain, jskernel}.
    auto small = matrix_jobs();
    small.push_back(make_job(5, small[0].key.program, "plain"));  // duplicate witness
    std::vector<svc::job> full;
    for (const auto& cve : attacks::cve_ids()) {
        for (const char* defense : {"plain", "jskernel"}) {
            full.push_back(make_job(full.size() + 1, cve, defense));
        }
    }
    const std::vector<std::pair<std::vector<svc::job>, std::uint64_t>> waves{
        {small, 4}, {full, 2 * attacks::cve_ids().size()}};

    for (const auto& [wave, distinct] : waves) {
        SCOPED_TRACE(std::to_string(wave.size()) + "-job wave");
        const std::uint64_t jobs = wave.size();
        svc::service_options opt;
        opt.store_dir = (fs::path(dir_) / std::to_string(jobs)).string();
        std::string cold_json;
        {
            svc::service s(opt);
            const auto cold = run_jobs(s, wave);
            EXPECT_EQ(cold.trials, distinct);  // a duplicate dedups into one trial...
            EXPECT_EQ(cold.hits_mem, 0u);      // ...which is not a cache hit
            EXPECT_EQ(cold.hits_disk, 0u);
            cold_json = cold.merged_json;

            // Same wave again in-process: everything is memory-resident.
            const auto warm = run_jobs(s, wave);
            EXPECT_EQ(warm.trials, 0u);
            EXPECT_EQ(warm.hits_mem, jobs);
            EXPECT_EQ(warm.hits_disk, 0u);
            EXPECT_EQ(warm.merged_json, cold_json);
        }
        // A fresh process over the same store: recalled from disk,
        // byte-identical aggregate, zero simulation.
        svc::service s(opt);
        const auto recalled = run_jobs(s, wave);
        EXPECT_EQ(recalled.trials, 0u);
        EXPECT_EQ(recalled.hits_disk, distinct);
        EXPECT_EQ(recalled.hits_mem, jobs - distinct);  // duplicates, promoted by the disk hit
        EXPECT_EQ(recalled.merged_json, cold_json);
        ASSERT_NE(s.disk(), nullptr);
        EXPECT_EQ(s.disk()->stats().loaded_records, distinct);
        EXPECT_EQ(s.disk()->stats().recalls, distinct);
    }
}

TEST_F(service_test, uncached_and_cached_baselines_agree)
{
    // The contract that makes the cache sound: a memory-only service and a
    // store-backed one produce identical bytes for the same job set, whether
    // the store's ack barrier fsyncs or stops at the OS.
    svc::service_options with_store;
    with_store.store_dir = (fs::path(dir_) / "fsync").string();
    svc::service_options no_fsync = with_store;
    no_fsync.store_dir = (fs::path(dir_) / "nofsync").string();
    no_fsync.fsync = false;
    svc::service cached(with_store);
    svc::service unsynced(no_fsync);
    svc::service uncached({});
    const std::string baseline = run_jobs(uncached, matrix_jobs()).merged_json;
    EXPECT_EQ(run_jobs(cached, matrix_jobs()).merged_json, baseline);
    EXPECT_EQ(run_jobs(unsynced, matrix_jobs()).merged_json, baseline);
}

// --- chaos-path jobs --------------------------------------------------------

TEST_F(service_test, chaos_jobs_replay_by_seed_and_plan)
{
    const auto cves = attacks::cve_ids();
    std::vector<svc::job> jobs = {
        make_job(1, cves[0], "jskernel", faults::plan::perturb_only(3).str()),
        make_job(2, cves[0], "plain", faults::plan::perturb_only(3).str()),
        make_job(3, "program:42", "jskernel"),
    };
    svc::service a({});
    svc::service b({});
    const auto wave_a = run_jobs(a, jobs);
    const auto wave_b = run_jobs(b, jobs);
    EXPECT_EQ(wave_a.merged_json, wave_b.merged_json);
    for (std::size_t i = 0; i < wave_a.results.size(); ++i) {
        EXPECT_GT(wave_a.results[i].tasks_executed, 0u);
        EXPECT_FALSE(wave_a.results[i].hit_task_cap);
        EXPECT_EQ(wave_a.results[i].trace_digest, wave_b.results[i].trace_digest);
        if (wave_a.jobs[i].key.defense == "jskernel") {
            EXPECT_NE(wave_a.results[i].journal_digest, 0u);
        }
    }
    // Second flush of the same set: all served from memory.
    const auto warm = run_jobs(a, std::move(jobs));
    EXPECT_EQ(warm.trials, 0u);
    EXPECT_EQ(warm.hits_mem, 3u);
    EXPECT_EQ(warm.merged_json, wave_a.merged_json);
}

// --- validation -------------------------------------------------------------

TEST_F(service_test, submit_rejects_invalid_witnesses)
{
    svc::service s({});
    auto& sess = s.connect("t");
    EXPECT_THROW(sess.submit(make_job(1, "no-such-cve", "plain")),
                 std::invalid_argument);
    EXPECT_THROW(sess.submit(make_job(2, attacks::cve_ids()[0], "no-such-defense")),
                 std::invalid_argument);
    EXPECT_THROW(sess.submit(make_job(3, "program:not-a-number", "jskernel")),
                 std::invalid_argument);
    auto chaos_with_decisions =
        make_job(4, attacks::cve_ids()[0], "plain", faults::plan{}.str());
    chaos_with_decisions.key.decisions = "0,1";
    EXPECT_THROW(sess.submit(std::move(chaos_with_decisions)), std::invalid_argument);
    auto bad_plan = make_job(5, attacks::cve_ids()[0], "plain");
    bad_plan.key.plan = "nonsense=;;";
    EXPECT_THROW(sess.submit(std::move(bad_plan)), std::invalid_argument);
    auto chaos_defense =
        make_job(6, attacks::cve_ids()[0], "deterfox", faults::plan{}.str());
    EXPECT_THROW(sess.submit(std::move(chaos_defense)), std::invalid_argument);
    EXPECT_EQ(sess.pending(), 0u);
    // Valid explore defenses other than plain/jskernel are accepted.
    sess.submit(make_job(7, attacks::cve_ids()[0], "deterfox"));
    EXPECT_EQ(sess.pending(), 1u);
}

// --- tenancy ----------------------------------------------------------------

TEST_F(service_test, tenants_account_separately_and_fold_deterministically)
{
    svc::service s({});
    const auto acme = run_jobs(s, matrix_jobs(), "acme");
    auto two = matrix_jobs();
    two.resize(2);
    const auto beta = run_jobs(s, std::move(two), "beta");
    EXPECT_EQ(acme.trials, 4u);
    EXPECT_EQ(beta.trials, 0u);  // the shared cache spans tenants
    EXPECT_EQ(beta.hits_mem, 2u);

    auto& tenants = s.tenants();
    EXPECT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants.get("acme").get_counter("svc.jobs").value(), 4u);
    EXPECT_EQ(tenants.get("acme").get_counter("svc.trials").value(), 4u);
    EXPECT_EQ(tenants.get("beta").get_counter("svc.jobs").value(), 2u);
    EXPECT_EQ(tenants.get("beta").get_counter("svc.cache_hits_mem").value(), 2u);
    const auto total = tenants.merged();
    EXPECT_EQ(total.counters().at("svc.jobs").value(), 6u);
    EXPECT_EQ(total.counters().at("svc.waves").value(), 2u);
    EXPECT_EQ(total.counters().at("svc.trials").value(), 4u);
    // Snapshot is deterministic and contains both sections.
    const std::string snap = s.snapshot_json();
    EXPECT_NE(snap.find("\"acme\""), std::string::npos);
    EXPECT_NE(snap.find("\"beta\""), std::string::npos);
    EXPECT_EQ(snap, s.snapshot_json());
}

// --- resize -----------------------------------------------------------------

TEST_F(service_test, resize_between_waves_preserves_bytes_and_cache)
{
    svc::service_options opt;
    opt.jobs = 1;
    svc::service s(opt);
    const auto before = run_jobs(s, matrix_jobs());
    s.resize(2);
    EXPECT_EQ(s.jobs(), 2u);
    const auto warm = run_jobs(s, matrix_jobs());
    EXPECT_EQ(warm.merged_json, before.merged_json);
    EXPECT_EQ(warm.trials, 0u);
    EXPECT_EQ(warm.hits_mem, 4u);
    // And fresh simulation on the resized pool still matches: different
    // seed, computed once at jobs=2, once by a jobs=2-from-birth service.
    auto moved = matrix_jobs();
    for (auto& j : moved) j.key.seed = 23;
    const auto resized_fresh = run_jobs(s, moved);
    svc::service_options opt2;
    opt2.jobs = 2;
    svc::service born_wide(opt2);
    EXPECT_EQ(resized_fresh.merged_json, run_jobs(born_wide, moved).merged_json);
}

// --- wire conversation ------------------------------------------------------

TEST_F(service_test, serve_streams_canonical_frames_and_survives_bad_jobs)
{
    svc::service s({});
    svc::mem_pipe in;
    svc::mem_pipe out;
    svc::write_frame(in, svc::frame_type::hello, svc::encode_hello("wire-tenant"));
    svc::write_frame(in, svc::frame_type::job,
                     svc::encode_job({99, make_job(99, "no-such-cve", "plain").key}));
    auto jobs = matrix_jobs();
    std::reverse(jobs.begin(), jobs.end());  // arrival order must not matter
    for (const auto& j : jobs) {
        svc::write_frame(in, svc::frame_type::job, svc::encode_job({j.client_id, j.key}));
    }
    svc::write_frame(in, svc::frame_type::end_wave, "");

    svc::wave_result seen;
    const std::size_t waves =
        s.serve(in, out, [&](const svc::wave_result& w) { seen = w; });
    EXPECT_EQ(waves, 1u);
    EXPECT_EQ(seen.jobs.size(), 4u);

    // Frame 1: the rejection, emitted at submit time.
    svc::frame f;
    ASSERT_TRUE(svc::read_frame(out, f));
    ASSERT_EQ(f.type, svc::frame_type::error);
    const auto reject = svc::decode_reject(f.payload);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->client_id, 99u);
    EXPECT_NE(reject->message.find("unknown program"), std::string::npos);

    // Then one result frame per accepted job, in canonical (not arrival)
    // order and consecutively sequence-numbered from 1 (the reject carries
    // seq 0: advisory, outside the replayable stream), then wave_done
    // carrying the merged JSON.
    EXPECT_EQ(reject->seq, 0u);
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(svc::read_frame(out, f));
        ASSERT_EQ(f.type, svc::frame_type::result) << "frame " << i;
        const auto res = svc::decode_result(f.payload);
        ASSERT_TRUE(res.has_value());
        EXPECT_EQ(res->seq, i + 1);
        EXPECT_EQ(res->client_id, seen.jobs[i].client_id);
        EXPECT_EQ(res->result, seen.results[i]);
    }
    ASSERT_TRUE(svc::read_frame(out, f));
    EXPECT_EQ(f.type, svc::frame_type::wave_done);
    const auto done = svc::decode_wave_done(f.payload);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->seq, 5u);
    EXPECT_EQ(done->merged_json, seen.merged_json);
    EXPECT_FALSE(svc::read_frame(out, f));

    // The wave's bytes equal a direct in-process run of the same set.
    svc::service direct({});
    EXPECT_EQ(seen.merged_json, run_jobs(direct, matrix_jobs()).merged_json);
    EXPECT_EQ(s.tenants().get("wire-tenant").get_counter("svc.jobs").value(), 4u);
}

TEST_F(service_test, eof_flushes_a_trailing_wave)
{
    svc::service s({});
    svc::mem_pipe in;
    svc::mem_pipe out;
    const auto job = matrix_jobs()[0];
    svc::write_frame(in, svc::frame_type::job, svc::encode_job({job.client_id, job.key}));
    // No end_wave: the stream just ends.
    EXPECT_EQ(s.serve(in, out), 1u);
    svc::frame f;
    ASSERT_TRUE(svc::read_frame(out, f));
    EXPECT_EQ(f.type, svc::frame_type::result);
    ASSERT_TRUE(svc::read_frame(out, f));
    EXPECT_EQ(f.type, svc::frame_type::wave_done);
}

}  // namespace
