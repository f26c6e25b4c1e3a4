// A/B determinism pin for the scheduling hot-path overhaul.
//
// The golden rows below were captured against the pre-overhaul structures
// (linear-scan next_entry_hooked, O(C^2) FIFO filter, std::map event queue):
// for a grid of random programs, commutativity windows and walk seeds, one
// controlled run recorded its decision string plus FNV-1a hashes of the
// observation log, the kernel dispatch journal and the complete task_info
// stream. The test replays every recorded decision string against the
// current structures and requires all three hashes — and the decision string
// the replay itself re-records — to match bit-for-bit. Any scheduling
// divergence introduced by an "equivalent" data-structure change fails here
// with the offending program seed and schedule.
//
// Regenerate (only when a deliberate semantic change invalidates the rows):
//   JSK_AB_GENERATE=1 ./test_ab_determinism --gtest_filter='*generate*'
// and paste the printed table over kGolden.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>
#include <string>

#include "kernel/kernel.h"
#include "sim/explore.h"
#include "sim/hash.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "workloads/random_program.h"

namespace {

namespace sim = jsk::sim;
namespace explore = jsk::sim::explore;
namespace rt = jsk::rt;

/// FNV-1a from the offset basis the golden rows were captured with: one
/// digit short of the standard basis, kept so the rows stay valid.
std::uint64_t fnv1a(const std::string& text)
{
    return sim::fnv1a(text, 1469598103934665603ull);
}

struct ab_capture {
    std::string decisions;       // trimmed decision string the run took
    std::uint64_t observations;  // fnv1a of the program's observation log
    std::uint64_t journal;       // fnv1a of the kernel journal JSON ("-" when plain)
    std::uint64_t tasks;         // fnv1a of the task_info stream
};

/// One controlled run of a seeded random program: browser world, optional
/// kernel, task_info stream recorded from the simulator's observer seam.
ab_capture run_once(std::uint64_t program_seed, bool with_kernel, explore::controller& ctl)
{
    rt::browser b(rt::chrome_profile());
    std::string tasks;
    b.sim().add_task_observer([&tasks](const sim::task_info& info) {
        tasks += std::to_string(info.id) + "," + std::to_string(info.thread) + "," +
                 std::to_string(info.ready_at) + "," + std::to_string(info.start) + "," +
                 std::to_string(info.end) + "," + info.label + ";";
    });
    ctl.attach(b.sim());
    std::unique_ptr<jsk::kernel::kernel> k;
    if (with_kernel) k = jsk::kernel::kernel::boot(b);

    auto log = std::make_shared<jsk::workloads::observation_log>();
    jsk::workloads::install_random_program(b, program_seed, log);
    b.run_until(60 * sim::sec, 5'000'000);

    ab_capture out;
    auto decisions = ctl.decisions();
    decisions.trim();
    out.decisions = decisions.str();
    out.observations = fnv1a(log->str());
    out.journal = k ? fnv1a(k->dispatch_journal().to_json()) : 0;
    out.tasks = fnv1a(tasks);
    return out;
}

struct golden_row {
    std::uint64_t program_seed;
    bool with_kernel;
    sim::time_ns window;
    std::uint64_t walk_seed;  // 0: default schedule (first-candidate tail)
    const char* decisions;
    std::uint64_t observations;
    std::uint64_t journal;
    std::uint64_t tasks;
};

// clang-format off
const std::vector<golden_row> kGolden = {
    // {program_seed, with_kernel, window, walk_seed, decisions, observations, journal, tasks},
    {3, true, 0, 0, "", 11023429602967693624ull, 1424606468332453745ull, 12015893720014090436ull},
    {3, true, 0, 101, "10010211", 11023429602967693624ull, 1424606468332453745ull, 15254712110215379539ull},
    {3, true, 0, 202, "02002", 11023429602967693624ull, 7927947356507823027ull, 3653528279203108384ull},
    {3, true, 500000, 0, "", 11023429602967693624ull, 1424606468332453745ull, 12015893720014090436ull},
    {3, true, 500000, 101, "0000101300001101", 11023429602967693624ull, 6832963466621896635ull, 9644649826740489970ull},
    {3, true, 500000, 202, "210320304321101011", 11023429602967693624ull, 1424606468332453745ull, 2565246758986126067ull},
    {3, false, 0, 0, "", 17813124650377866034ull, 0ull, 6337611277474390524ull},
    {3, false, 0, 101, "1", 12691506308713992712ull, 0ull, 5344090196850629488ull},
    {3, false, 0, 202, "", 17813124650377866034ull, 0ull, 6337611277474390524ull},
    {3, false, 500000, 0, "", 17813124650377866034ull, 0ull, 6337611277474390524ull},
    {3, false, 500000, 101, "0001021", 5575738127397257642ull, 0ull, 11200866677320282760ull},
    {3, false, 500000, 202, "2100201", 2555222776511621380ull, 0ull, 2058465823710511623ull},
    {7, true, 0, 0, "", 9894352149532282703ull, 3173994653020045328ull, 4327937321658373156ull},
    {7, true, 0, 101, "", 9894352149532282703ull, 3173994653020045328ull, 4327937321658373156ull},
    {7, true, 0, 202, "", 9894352149532282703ull, 3173994653020045328ull, 4327937321658373156ull},
    {7, true, 500000, 0, "", 9894352149532282703ull, 3173994653020045328ull, 4327937321658373156ull},
    {7, true, 500000, 101, "1", 9894352149532282703ull, 10819255942592191338ull, 4148499029295079217ull},
    {7, true, 500000, 202, "021", 9894352149532282703ull, 10819255942592191338ull, 920550702400693143ull},
    {7, false, 0, 0, "", 10871819023106405821ull, 0ull, 7585362936219861391ull},
    {7, false, 0, 101, "", 10871819023106405821ull, 0ull, 7585362936219861391ull},
    {7, false, 0, 202, "", 10871819023106405821ull, 0ull, 7585362936219861391ull},
    {7, false, 500000, 0, "", 10871819023106405821ull, 0ull, 7585362936219861391ull},
    {7, false, 500000, 101, "1", 4430710783140272812ull, 0ull, 4496300997491432833ull},
    {7, false, 500000, 202, "01", 4430710783140272812ull, 0ull, 1325504280216029697ull},
    {11, true, 0, 0, "", 10808792164105370859ull, 3668449688817826026ull, 8074322606557665703ull},
    {11, true, 0, 101, "", 10808792164105370859ull, 3668449688817826026ull, 8074322606557665703ull},
    {11, true, 0, 202, "", 10808792164105370859ull, 3668449688817826026ull, 8074322606557665703ull},
    {11, true, 500000, 0, "", 10808792164105370859ull, 3668449688817826026ull, 8074322606557665703ull},
    {11, true, 500000, 101, "10001", 10808792164105370859ull, 2260097104620528460ull, 11354091388790186265ull},
    {11, true, 500000, 202, "011", 10808792164105370859ull, 2260097104620528460ull, 7488679837728950070ull},
    {11, false, 0, 0, "", 2186024597188033937ull, 0ull, 11170594326955607922ull},
    {11, false, 0, 101, "", 2186024597188033937ull, 0ull, 11170594326955607922ull},
    {11, false, 0, 202, "", 2186024597188033937ull, 0ull, 11170594326955607922ull},
    {11, false, 500000, 0, "", 2186024597188033937ull, 0ull, 11170594326955607922ull},
    {11, false, 500000, 101, "1", 2186024597188033937ull, 0ull, 9643003907514426842ull},
    {11, false, 500000, 202, "01", 1740258958735594580ull, 0ull, 15874926874808847171ull},
    {29, true, 0, 0, "", 8631134901920343781ull, 4127048841942013415ull, 10178899655093279077ull},
    {29, true, 0, 101, "", 8631134901920343781ull, 4127048841942013415ull, 10178899655093279077ull},
    {29, true, 0, 202, "", 8631134901920343781ull, 4127048841942013415ull, 10178899655093279077ull},
    {29, true, 500000, 0, "", 8631134901920343781ull, 4127048841942013415ull, 10178899655093279077ull},
    {29, true, 500000, 101, "1", 8631134901920343781ull, 4127048841942013415ull, 17135395831946671547ull},
    {29, true, 500000, 202, "", 8631134901920343781ull, 4127048841942013415ull, 10178899655093279077ull},
    {29, false, 0, 0, "", 12494191499352589028ull, 0ull, 2214268723121015215ull},
    {29, false, 0, 101, "", 12494191499352589028ull, 0ull, 2214268723121015215ull},
    {29, false, 0, 202, "", 12494191499352589028ull, 0ull, 2214268723121015215ull},
    {29, false, 500000, 0, "", 12494191499352589028ull, 0ull, 2214268723121015215ull},
    {29, false, 500000, 101, "", 12494191499352589028ull, 0ull, 2214268723121015215ull},
    {29, false, 500000, 202, "", 12494191499352589028ull, 0ull, 2214268723121015215ull},
};
// clang-format on

ab_capture capture_row(std::uint64_t program_seed, bool with_kernel, sim::time_ns window,
                       std::uint64_t walk_seed)
{
    explore::controller ctl({},
                            walk_seed == 0 ? explore::controller::tail_policy::first
                                           : explore::controller::tail_policy::random,
                            walk_seed);
    ctl.set_window(window);
    return run_once(program_seed, with_kernel, ctl);
}

TEST(ab_determinism, generate_golden_rows)
{
    if (std::getenv("JSK_AB_GENERATE") == nullptr) {
        GTEST_SKIP() << "set JSK_AB_GENERATE=1 to (re)generate the golden table";
    }
    for (const std::uint64_t program_seed : {3ull, 7ull, 11ull, 29ull}) {
        for (const bool with_kernel : {true, false}) {
            for (const sim::time_ns window : {sim::time_ns{0}, 500 * sim::us}) {
                for (const std::uint64_t walk_seed : {0ull, 101ull, 202ull}) {
                    const ab_capture c =
                        capture_row(program_seed, with_kernel, window, walk_seed);
                    std::printf("    {%llu, %s, %lld, %llu, \"%s\", %lluull, %lluull, "
                                "%lluull},\n",
                                static_cast<unsigned long long>(program_seed),
                                with_kernel ? "true" : "false",
                                static_cast<long long>(window),
                                static_cast<unsigned long long>(walk_seed),
                                c.decisions.c_str(),
                                static_cast<unsigned long long>(c.observations),
                                static_cast<unsigned long long>(c.journal),
                                static_cast<unsigned long long>(c.tasks));
                }
            }
        }
    }
}

TEST(ab_determinism, recorded_schedules_replay_identically_on_current_structures)
{
    ASSERT_GT(kGolden.size(), 0u) << "golden table is empty — regenerate";
    for (const golden_row& row : kGolden) {
        const auto prescribed = explore::schedule::parse(row.decisions);
        ASSERT_TRUE(prescribed.has_value()) << "malformed golden row: " << row.decisions;

        explore::controller ctl(*prescribed, explore::controller::tail_policy::first);
        ctl.set_window(row.window);
        const ab_capture replay = run_once(row.program_seed, row.with_kernel, ctl);

        const std::string what = "program " + std::to_string(row.program_seed) +
                                 (row.with_kernel ? " +kernel" : " plain") + " window " +
                                 std::to_string(row.window) + " schedule \"" +
                                 row.decisions + "\"";
        EXPECT_FALSE(ctl.replay_diverged()) << what << ": replay diverged";
        EXPECT_EQ(replay.decisions, row.decisions) << what << ": decision string drifted";
        EXPECT_EQ(replay.observations, row.observations) << what << ": observation log";
        EXPECT_EQ(replay.journal, row.journal) << what << ": kernel journal";
        EXPECT_EQ(replay.tasks, row.tasks) << what << ": task_info stream";
    }
}

TEST(ab_determinism, fresh_walks_still_match_their_golden_capture)
{
    // Beyond replay: re-running the *random walk itself* (same walk seed) must
    // produce the same decisions — the candidate sets offered at every point
    // are pinned, not just the replayed path.
    ASSERT_GT(kGolden.size(), 0u);
    for (const golden_row& row : kGolden) {
        const ab_capture fresh =
            capture_row(row.program_seed, row.with_kernel, row.window, row.walk_seed);
        EXPECT_EQ(fresh.decisions, row.decisions)
            << "program " << row.program_seed << " walk " << row.walk_seed
            << ": candidate sets shifted";
        EXPECT_EQ(fresh.tasks, row.tasks);
    }
}

}  // namespace
