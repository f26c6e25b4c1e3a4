// dpor-search: sim::explore::explore_dfs searches — DPOR on, preemption
// budget 2, 5 ms window, at most 100 schedules, so each search stays well
// under 100 ms. An op is one round of 24 searches: the 12 Table I CVEs
// under JSKernel, then 12 seeded random web programs under a booted
// kernel, checked with the journal-invariance oracle (journal and
// observation log must match the default schedule's). The memory model
// alternates between seqcst and relaxed + sab_mix. The only workload where
// DPOR analysis and wm reads-from enumeration do real work.
//
// Work is counted in schedules run, and an op is a whole round: single
// searches differ in size by 100x between programs, so searches/s or a
// per-search median would measure the seed's program mix, not the code.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/explore_sweep.h"
#include "kernel/journal.h"
#include "kernel/kernel.h"
#include "obs/collect.h"
#include "obs/metrics.h"
#include "runtime/browser.h"
#include "runtime/profile.h"
#include "sim/explore.h"
#include "wm/model.h"
#include "workload.h"
#include "workloads/random_program.h"

namespace perfbench {

namespace {

namespace explore = jsk::sim::explore;

constexpr std::uint64_t k_salt = 0xd9;
constexpr std::uint64_t k_cves = 12;
constexpr std::uint64_t k_programs_per_round = 12;
constexpr std::uint64_t k_max_schedules = 100;
constexpr std::uint64_t k_smoke_max_schedules = 10;
constexpr jsk::sim::time_ns k_window = 5 * jsk::sim::ms;

struct search_input {
    bool cve = true;
    std::uint64_t index = 0;  // CVE row, or random-program seed
    bool relaxed = false;
};

struct program_run {
    std::string observations;
    jsk::kernel::journal journal;
};

class dpor_search final : public workload {
public:
    dpor_search(const run_options& opt, tracer& tr)
        : tr_(tr), program_seeds_(opt.seed, k_salt), cves_(jsk::attacks::cve_ids()),
          max_schedules_(opt.smoke ? k_smoke_max_schedules : k_max_schedules)
    {
    }

    // One search averages ~4 ms: a reference run every ~30 ms of searches.
    [[nodiscard]] std::size_t pieces_per_block() const override { return 8; }

    void setup() override
    {
        // Warm-up: every CVE search under both memory models. Fixed programs,
        // so set-up costs the same for every seed.
        for (std::uint64_t i = 0; i < k_cves; ++i) {
            (void)search({true, i, false});
            (void)search({true, i, true});
        }
    }

    op_result run_op(std::uint64_t index, calibrator& cal) override
    {
        op_result r;
        for (std::uint64_t pos = 0; pos < k_cves + k_programs_per_round; ++pos) {
            const search_input in = input_at(index, pos);
            outcome o;
            r.pieces.push_back(cal.piece([&] { o = search(in); }));
            r.work += static_cast<double>(o.res.schedules_run);
            ++searches_;
            runs_ += o.res.schedules_run;
            pruned_ += o.res.pruned;
            if (o.res.failing) ++witnesses_;
            if (!o.res.failing && !o.res.exhausted && o.res.schedules_run >= max_schedules_) {
                ++budget_hits_;
            }
            std::string error;
            if (in.cve) {
                if (o.res.failing) {
                    error = cves_[in.index] + " triggered under jskernel at schedule " +
                            o.res.failing->str();
                }
            } else if (o.res.failing &&
                       !explore::replay(*o.res.failing, o.inner, k_window).violated) {
                // A divergence is a search result; one that does not replay is a bug.
                error = "program " + std::to_string(in.index) + " witness " +
                        o.res.failing->str() + " does not replay";
            }
            if (!error.empty() && r.ok) {
                r.ok = false;
                r.error = error;
            }
        }
        return r;
    }

    void layer_metrics(std::map<std::string, double>& out, const tracer& tr,
                       const std::vector<double>& /*op_ms*/) override
    {
        const double searches = static_cast<double>(searches_);
        if (searches > 0) {
            out["explore.runs_per_search"] = static_cast<double>(runs_) / searches;
            out["explore.budget_hits"] = static_cast<double>(budget_hits_) / searches;
            out["explore.witnesses"] = static_cast<double>(witnesses_) / searches;
        }
        if (runs_ + pruned_ > 0) {
            out["explore.prune_ratio"] =
                static_cast<double>(pruned_) / static_cast<double>(runs_ + pruned_);
        }
        const tracer::totals& dfs = tr.of("explore.explore_dfs");
        const tracer::totals& prog = tr.of("sim.program");
        if (dfs.total_ms > 0 && prog.calls > 0) {
            const double analysis_ms = dfs.total_ms - prog.total_ms;
            const double runs = static_cast<double>(prog.calls);
            out["explore.analysis_share"] = analysis_ms / dfs.total_ms;
            out["explore.analysis_us_per_run"] = analysis_ms * 1000 / runs;
            out["sim.program_us_per_run"] = prog.total_ms * 1000 / runs;
            out["sim.exec_steps_per_run"] = tr.counted("sim.exec_steps") / runs;
            out["sim.accesses_per_run"] = tr.counted("sim.accesses") / runs;
        }
        if (const double relaxed_runs = tr.counted("wm.relaxed_runs"); relaxed_runs > 0) {
            out["wm.rf_choices_per_run"] = tr.counted("wm.rf_choices") / relaxed_runs;
        }
        out["kernel.boot_us"] = median(tr.of("kernel.boot").durations_ms) * 1000;
        if (const double kernels = tr.counted("kernel.runs"); kernels > 0) {
            out["kernel.events_per_run"] = tr.counted("kernel.events_dispatched") / kernels;
        }
    }

    std::string inputs() override
    {
        std::string s = "dpor-search max_schedules=" + std::to_string(max_schedules_) + "\n";
        const auto line = [](const char* what, const search_input& in) {
            return std::string(what) + (in.cve ? " cve " : " program ") +
                   std::to_string(in.index) + (in.relaxed ? " relaxed\n" : " seqcst\n");
        };
        for (std::uint64_t round = 0; round < 8; ++round) {
            for (std::uint64_t pos = 0; pos < k_cves + k_programs_per_round; ++pos) {
                s += line("op", input_at(round, pos));
            }
        }
        return s;
    }

private:
    struct outcome {
        explore::result res;
        explore::program inner;
    };

    /// Search `pos` of round `round`: 12 CVE searches then 12 random
    /// programs; the memory model alternates per search and per round.
    search_input input_at(std::uint64_t round, std::uint64_t pos)
    {
        search_input in;
        in.relaxed = (pos + round) % 2 == 1;
        if (pos < k_cves) {
            in.index = pos;
        } else {
            in.cve = false;
            const std::uint64_t k = round * k_programs_per_round + (pos - k_cves);
            while (program_seeds_list_.size() <= k) {
                program_seeds_list_.push_back(program_seeds_.next());
            }
            in.index = program_seeds_list_[k];
        }
        return in;
    }

    program_run run_program(std::uint64_t seed, bool relaxed, explore::controller& ctl)
    {
        jsk::rt::browser b(jsk::rt::chrome_profile());
        ctl.attach(b.sim());
        if (relaxed) b.set_memory_model(jsk::wm::mode::relaxed);
        std::unique_ptr<jsk::kernel::kernel> k;
        {
            const auto span = tr_.span("kernel.boot");
            k = jsk::kernel::kernel::boot(b);
        }
        auto log = std::make_shared<jsk::workloads::observation_log>();
        jsk::workloads::random_program_options po;
        po.sab_mix = relaxed;
        jsk::workloads::install_random_program(b, seed, log, po);
        b.run_until(60 * jsk::sim::sec, 5'000'000);
        if (b.sim().queued_entries() != 0) {
            throw std::logic_error("hooked run fed the unhooked queue");
        }
        if (tr_.active()) {
            jsk::obs::registry reg;
            jsk::obs::collect_kernel(reg, *k);
            tr_.count("kernel.events_dispatched",
                      static_cast<double>(reg.get_counter("kernel.events_dispatched").value()));
            tr_.count("kernel.runs", 1);
        }
        return {log->str(), k->dispatch_journal()};
    }

    outcome search(const search_input& in)
    {
        const jsk::wm::mode model = in.relaxed ? jsk::wm::mode::relaxed : jsk::wm::mode::seqcst;
        outcome o;
        if (in.cve) {
            o.inner = jsk::attacks::cve_trigger_program_snap(cves_[in.index], true, 17, model);
        } else {
            auto reference = std::make_shared<program_run>();
            {
                const auto span = tr_.span("sim.reference_run");
                explore::controller ctl;
                ctl.set_window(k_window);
                *reference = run_program(in.index, in.relaxed, ctl);
            }
            o.inner = [this, in, reference](explore::controller& ctl) {
                const program_run run = run_program(in.index, in.relaxed, ctl);
                explore::run_outcome out;
                out.violated = run.observations != reference->observations ||
                               !(run.journal == reference->journal);
                if (out.violated) out.detail = "journal or observations diverge";
                return out;
            };
        }
        const explore::program timed = [this, &o, relaxed = in.relaxed](explore::controller& ctl) {
            if (!tr_.active()) return o.inner(ctl);
            explore::run_outcome out;
            {
                const auto span = tr_.span("sim.program");
                out = o.inner(ctl);
            }
            tr_.count("sim.exec_steps", static_cast<double>(ctl.exec_log().size()));
            tr_.count("sim.accesses", static_cast<double>(ctl.access_log().size()));
            if (relaxed) {
                double rf = 0;
                for (const explore::decision& d : ctl.trace()) rf += d.kind == 1 ? 1 : 0;
                tr_.count("wm.rf_choices", rf);
                tr_.count("wm.relaxed_runs", 1);
            }
            return out;
        };
        explore::options eo;
        eo.dpor = true;
        eo.preemption_budget = 2;
        eo.window = k_window;
        eo.max_schedules = max_schedules_;
        {
            const auto span = tr_.span("explore.explore_dfs");
            o.res = explore::explore_dfs(timed, eo);
        }
        return o;
    }

    tracer& tr_;
    seed_stream program_seeds_;
    std::vector<std::string> cves_;
    std::uint64_t max_schedules_;
    std::vector<std::uint64_t> program_seeds_list_;
    std::uint64_t searches_ = 0;
    std::uint64_t runs_ = 0;
    std::uint64_t pruned_ = 0;
    std::uint64_t witnesses_ = 0;
    std::uint64_t budget_hits_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_dpor_search(const run_options& opt, tracer& tr)
{
    return std::make_unique<dpor_search>(opt, tr);
}

}  // namespace perfbench
