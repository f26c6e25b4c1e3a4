// explore-matrix: one attacks::explore_cve_matrix pass per op — 12 CVEs x
// {plain, jskernel} x 32 random walks, snapshot-served worlds with sites
// 0-3 preloaded, a 5 ms commutativity window, and a per-op explore seed
// from the workload seed. Fork/restore (core) and hooked sim steps do
// nearly all the work; no DPOR metadata, obs sink, fault injector or store.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attacks/explore_sweep.h"
#include "core/snapshot.h"
#include "core/world.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr std::uint64_t k_salt = 0xe1;
constexpr std::uint64_t k_walks = 32;
constexpr std::uint64_t k_smoke_walks = 2;
constexpr jsk::sim::time_ns k_window = 5 * jsk::sim::ms;
constexpr int k_warmup_ops = 2;

class explore_matrix final : public workload {
public:
    explore_matrix(const run_options& opt, tracer& tr)
        : tr_(tr), walks_(opt.smoke ? k_smoke_walks : k_walks), op_seeds_(opt.seed, k_salt)
    {
        seed_stream warmup_seeds(opt.seed, k_salt + 1);
        for (int i = 0; i < k_warmup_ops; ++i) warmups_.push_back(warmup_seeds.next());
    }

    // One matrix pass is ~8 ms: a reference run every ~30 ms of ops.
    [[nodiscard]] std::size_t pieces_per_block() const override { return 4; }

    void setup() override
    {
        jsk::attacks::cve_trial_spec spec;
        spec.site_ranks = sites();
        {
            const auto span = tr_.span("core.snapshot_world");
            snap_ = jsk::core::snapshot_world(jsk::attacks::cve_world_recipe(spec));
        }
        for (const std::uint64_t s : warmups_) {
            const auto span = tr_.span("attacks.explore_cve_matrix");
            (void)jsk::attacks::explore_cve_matrix(walks_, options(s));
        }
    }

    op_result run_op(std::uint64_t index, calibrator& cal) override
    {
        op_result r;
        jsk::attacks::matrix_options mo = options(seed_at(index));
        if (tr_.active()) {
            mo.fork_stats = &fork_stats_;
            ++traced_ops_;
        }
        std::vector<jsk::attacks::cve_schedule_row> rows;
        r.pieces.push_back(cal.piece([&] {
            const auto span = tr_.span("attacks.explore_cve_matrix");
            rows = jsk::attacks::explore_cve_matrix(walks_, mo);
        }));
        r.work = static_cast<double>(rows.size() * 2 * walks_);
        r.error = check(rows);
        r.ok = r.error.empty();
        if (index == 0) first_json_ = jsk::attacks::cve_matrix_json(rows);
        return r;
    }

    std::string final_check() override
    {
        // The run's first op again: the matrix JSON must repeat byte for byte.
        const auto rows = jsk::attacks::explore_cve_matrix(walks_, options(seed_at(0)));
        if (jsk::attacks::cve_matrix_json(rows) != first_json_) {
            return "re-running op 0 changed cve_matrix_json";
        }
        return {};
    }

    void probe() override
    {
        // The first op's trials called one by one on the set-up snapshot,
        // between two sweeps of the same trials.
        const std::uint64_t seed = seed_at(0);
        const auto ids = jsk::attacks::cve_ids();
        const auto sweep_ms = [&] {
            const auto t0 = host_clock::now();
            (void)jsk::attacks::explore_cve_matrix(walks_, options(seed));
            return ms_since(t0);
        };
        const double before = sweep_ms();
        double one_by_one_ms = 0;
        double choices = 0;
        double distinct = 0;
        const std::uint64_t jobs = ids.size() * 2 * walks_;
        for (std::uint64_t cell = 0; cell < ids.size() * 2; ++cell) {
            std::set<std::string> walks_seen;
            for (std::uint64_t walk = 0; walk < walks_; ++walk) {
                const std::uint64_t job = cell * walks_ + walk;
                jsk::attacks::cve_trial_spec spec;
                spec.cve = ids[cell / 2];
                if (cell % 2 == 1) spec.defense = jsk::defenses::defense_id::jskernel;
                spec.site_ranks = sites();
                jsk::attacks::cve_walk_spec ws;
                ws.tail = walk == 0 ? jsk::sim::explore::controller::tail_policy::first
                                    : jsk::sim::explore::controller::tail_policy::random;
                ws.walk_seed = jsk::sim::split(seed, job);
                ws.window = k_window;
                const auto t0 = host_clock::now();
                jsk::attacks::cve_trial_outcome out;
                {
                    const auto span = tr_.span("attacks.run_cve_trial_forked");
                    out = jsk::attacks::run_cve_trial_forked(*snap_, spec, ws);
                }
                one_by_one_ms += ms_since(t0);
                choices += static_cast<double>(out.decisions.size());
                walks_seen.insert(out.decisions);
            }
            distinct += static_cast<double>(walks_seen.size());
        }
        const double after = sweep_ms();
        sweep_overhead_pct_ = ((before + after) / 2 / one_by_one_ms - 1) * 100;
        choices_per_trial_ = choices / static_cast<double>(jobs);
        distinct_walk_ratio_ = distinct / static_cast<double>(jobs);
    }

    void layer_metrics(std::map<std::string, double>& out, const tracer& tr,
                       const std::vector<double>& /*op_ms*/) override
    {
        out["core.seal_ms"] = median(tr.of("core.snapshot_world").durations_ms);
        const double forks = static_cast<double>(fork_stats_.forks);
        if (forks > 0) {
            out["core.restore_kb_per_fork"] =
                static_cast<double>(fork_stats_.bytes_restored) / 1024.0 / forks;
        }
        if (traced_ops_ > 0) {
            out["core.cow_faults"] =
                static_cast<double>(fork_stats_.cow_faults) / static_cast<double>(traced_ops_);
        }
        out["core.image_kb"] = static_cast<double>(fork_stats_.image_bytes) / 1024.0;
        out["attacks.trial_us"] = median(tr.of("attacks.run_cve_trial_forked").durations_ms) * 1000;
        out["par.sweep_overhead_pct"] = sweep_overhead_pct_;
        out["sim.choices_per_trial"] = choices_per_trial_;
        out["attacks.distinct_walk_ratio"] = distinct_walk_ratio_;
    }

    std::string inputs() override
    {
        std::string s = "explore-matrix walks=" + std::to_string(walks_) + "\n";
        for (const std::uint64_t w : warmups_) s += "warmup_seed " + std::to_string(w) + "\n";
        for (std::uint64_t i = 0; i < 64; ++i) s += "op_seed " + std::to_string(seed_at(i)) + "\n";
        return s;
    }

private:
    static std::vector<std::uint64_t> sites() { return {0, 1, 2, 3}; }

    jsk::attacks::matrix_options options(std::uint64_t explore_seed) const
    {
        jsk::attacks::matrix_options mo;
        mo.explore.window = k_window;
        mo.explore.seed = explore_seed;
        mo.jobs = 1;
        mo.snapshots = true;
        mo.site_ranks = sites();
        return mo;
    }

    std::uint64_t seed_at(std::uint64_t index)
    {
        while (seeds_.size() <= index) seeds_.push_back(op_seeds_.next());
        return seeds_[index];
    }

    static std::string check(const std::vector<jsk::attacks::cve_schedule_row>& rows)
    {
        if (rows.size() != 12) return "expected 12 CVE rows, got " + std::to_string(rows.size());
        for (const auto& row : rows) {
            if (row.kernel_triggered != 0) return row.cve + " triggered under jskernel";
            if (row.plain_triggered == 0) return row.cve + " never triggered in the plain browser";
        }
        return {};
    }

    tracer& tr_;
    std::uint64_t walks_;
    seed_stream op_seeds_;
    std::vector<std::uint64_t> warmups_;
    std::vector<std::uint64_t> seeds_;
    std::unique_ptr<jsk::core::world_snapshot> snap_;
    std::string first_json_;
    jsk::core::fork_stats fork_stats_;
    std::uint64_t traced_ops_ = 0;
    double sweep_overhead_pct_ = 0;
    double choices_per_trial_ = 0;
    double distinct_walk_ratio_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_explore_matrix(const run_options& opt, tracer& tr)
{
    return std::make_unique<explore_matrix>(opt, tr);
}

}  // namespace perfbench
