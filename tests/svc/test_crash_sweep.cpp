// jsk::svc — the crash-recovery sweep (the durability capstone).
//
// svc::run_crash_matrix counts every crash-point boundary one full wave
// conversation crosses — store appends, shard fsyncs, the CURRENT flip,
// intent-journal records, every response frame's bytes — then kills the
// service's first incarnation at each boundary k = 1..N in a fresh store
// directory and drives the wave to completion through session_client's
// resume protocol. The assertion is byte-level: the merged JSON and the
// re-encoded result-frame stream of every crashed-and-recovered run must
// equal the fault-free reference, with no acknowledged result lost and no
// sequence contradicted (a contradiction throws out of the client and
// fails the test by exception).
//
// Sizing: the full 12-CVE wave is the CI contract (`ctest -L crash`).
// Sanitized builds and JSK_CRASH_SMOKE trim the wave to 3 CVEs so the
// matrix stays minutes, not hours; JSK_CRASH_FULL forces the full wave
// anywhere.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "attacks/explore_sweep.h"
#include "faults/io.h"
#include "sanitized_build.h"
#include "svc/crash.h"
#include "svc/service.h"

namespace {

using namespace jsk;
namespace fs = std::filesystem;

std::size_t wave_cves()
{
    if (std::getenv("JSK_CRASH_FULL") != nullptr) return 12;
    if (std::getenv("JSK_CRASH_SMOKE") != nullptr) return 3;
    return sanitized_build() ? 3 : 12;
}

std::vector<svc::wire_job> cve_wave(std::size_t n)
{
    const auto cves = attacks::cve_ids();
    if (n > cves.size()) n = cves.size();
    std::vector<svc::wire_job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        svc::wire_job j;
        j.client_id = i + 1;
        j.key.seed = 17;
        j.key.defense = "jskernel";
        j.key.program = cves[i];
        jobs.push_back(j);
    }
    return jobs;
}

class crash_sweep_test : public ::testing::Test {
protected:
    void SetUp() override
    {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::path(::testing::TempDir()) /
                (std::string("jsk_svc_crash_") + info->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(crash_sweep_test, every_crash_point_recovers_byte_identically)
{
    svc::crash_matrix_options opt;
    opt.jobs = cve_wave(wave_cves());
    opt.dir = dir_;

    const auto report = svc::run_crash_matrix(opt);

    EXPECT_GT(report.crash_points, 0u);
    EXPECT_EQ(report.runs, report.crash_points);
    EXPECT_EQ(report.crashes, report.runs)
        << "each matrix run kills its first incarnation exactly once";
    // Most crash points need a recovery incarnation; a few fire after the
    // final flush (the client already holds everything), so the bound is
    // strict-greater rather than double.
    EXPECT_GT(report.incarnations, report.runs);
    EXPECT_GT(report.resumes + report.resubmits, 0u);
    EXPECT_EQ(report.io_failures, 0u) << "no fault plan was armed";
    EXPECT_FALSE(report.reference_json.empty());
    EXPECT_FALSE(report.reference_frames.empty());
    EXPECT_TRUE(report.ok())
        << report.mismatches.size() << " of " << report.crash_points
        << " crash points diverged; first bad k="
        << (report.mismatches.empty() ? 0 : report.mismatches.front());
}

TEST_F(crash_sweep_test, matrix_reference_matches_a_direct_service_run)
{
    svc::crash_matrix_options opt;
    opt.jobs = cve_wave(2);
    opt.dir = dir_;
    const auto report = svc::run_crash_matrix(opt);
    ASSERT_TRUE(report.ok());

    // The same wave through the plain in-process API — no wire, no client,
    // no crash machinery — must merge to the same JSON.
    svc::service_options so;
    so.store_dir = (fs::path(dir_) / "direct").string();
    svc::service s(so);
    auto& sess = s.connect("crash-matrix");
    for (const auto& wj : opt.jobs) {
        svc::job j;
        j.client_id = wj.client_id;
        j.key = wj.key;
        sess.submit(std::move(j));
    }
    const auto wave = sess.flush();
    EXPECT_EQ(report.reference_json, wave.merged_json);
}

TEST_F(crash_sweep_test, matrix_survives_layered_fault_plans)
{
    // Crash points stacked on live fault rates: transient-only (latency
    // noise) and full chaos (every failure mode at once). Recovery must
    // still converge to fault-free bytes — outcomes are pure functions of
    // witness keys, so even a store lost to ENOSPC re-derives them.
    const std::size_t n = sanitized_build() ? 2 : 3;
    for (const auto& base :
         {faults::io_plan::transient_only(7), faults::io_plan::full_io_chaos(11)}) {
        svc::crash_matrix_options opt;
        opt.jobs = cve_wave(n);
        opt.dir = (fs::path(dir_) / ("plan-" + std::to_string(base.seed))).string();
        opt.base_plan = base;
        opt.max_attempts = 16;
        const auto report = svc::run_crash_matrix(opt);
        EXPECT_GT(report.crash_points, 0u) << base.str();
        EXPECT_TRUE(report.ok())
            << base.str() << ": " << report.mismatches.size() << " of "
            << report.crash_points << " crash points diverged; first bad k="
            << (report.mismatches.empty() ? 0 : report.mismatches.front());
    }
}

}  // namespace
