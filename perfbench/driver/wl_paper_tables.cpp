// paper-tables: one regeneration of the ten paper artifacts per op —
// Table I (cell by cell, with the Clock Edge x tor-browser cell timed on
// its own), Figs 2-3, Tables II-III, Dromaeo, worker creation, DOM compat,
// API compat and the ablations — through the library entry points the
// bench_* binaries call, with their fixed paper seeds. Covers the runtime
// cost models, the non-kernel defenses, site generation and the unhooked
// sim path; no fork, explore or svc work. The workload seed changes
// nothing here: the paper's seeds are fixed.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "attacks/expected.h"
#include "defenses/defense.h"
#include "paper_artifacts.h"
#include "workload.h"

namespace perfbench {

namespace {

struct artifact_entry {
    const char* span;
    paper::artifact (*make)();
};

const std::vector<artifact_entry>& artifacts()
{
    static const std::vector<artifact_entry> list{
        {"attacks.fig2", paper::fig2},
        {"attacks.table2", paper::table2},
        {"workloads.fig3", paper::fig3},
        {"workloads.table3", paper::table3},
        {"workloads.dromaeo", paper::dromaeo},
        {"workloads.worker", paper::worker},
        {"workloads.compat", paper::compat},
        {"defenses.api_compat", paper::api_compat},
        {"attacks.ablation", paper::ablation},
    };
    return list;
}

class paper_tables final : public workload {
public:
    explicit paper_tables(tracer& tr) : tr_(tr) {}

    // Table I cells average ~0.6 ms; each other artifact is a block of its own.
    [[nodiscard]] std::size_t pieces_per_block() const override { return 32; }

    void setup() override
    {
        // Warm-up: the three cheapest artifacts once.
        (void)paper::worker();
        (void)paper::dromaeo();
        (void)paper::fig2();
    }

    op_result run_op(std::uint64_t index, calibrator& cal) override
    {
        op_result r;
        if (tr_.active()) tr_.count("paper.traced_ops", 1);
        std::vector<std::string> outputs;
        outputs.push_back(table1(cal, r));
        cal.boundary();
        for (const artifact_entry& e : artifacts()) {
            paper::artifact a;
            r.pieces.push_back(cal.piece([&] {
                const auto span = tr_.span(e.span);
                a = e.make();
            }));
            cal.boundary();
            if (!a.shape_holds) fail(r, std::string(e.span) + ": the paper's shape does not hold");
            outputs.push_back(std::move(a.output));
        }
        if (index == 0) {
            first_outputs_ = outputs;
        } else {
            for (std::size_t i = 0; i < outputs.size(); ++i) {
                if (outputs[i] != first_outputs_[i]) {
                    fail(r, std::string(i == 0 ? "table1" : artifacts()[i - 1].span) +
                                " output differs from the first regeneration");
                }
            }
        }
        r.work = static_cast<double>(outputs.size());
        return r;
    }

    void layer_metrics(std::map<std::string, double>& out, const tracer& tr,
                       const std::vector<double>& /*op_ms*/) override
    {
        const double ops = tr.counted("paper.traced_ops");
        if (ops > 0) {
            out["attacks.table1_ms"] =
                (tr.of("attacks.table1_cell").total_ms + tr.of("attacks.clock_edge_tor").total_ms) /
                ops;
        }
        out["attacks.clock_edge_tor_ms"] = median(tr.of("attacks.clock_edge_tor").durations_ms);
        for (const artifact_entry& e : artifacts()) {
            out[std::string(e.span) + "_ms"] = median(tr.of(e.span).durations_ms);
        }
    }

    std::string inputs() override
    {
        return "paper-tables: fixed paper seeds (table1 trials=7 seed=23); the workload seed "
               "is unused\n";
    }

private:
    /// Table I, one calibrated piece per (attack, defense) cell.
    std::string table1(calibrator& cal, op_result& r)
    {
        std::string text;
        for (const auto& atk : jsk::attacks::all_attacks()) {
            for (const auto id : jsk::defenses::all_defense_ids()) {
                jsk::attacks::run_config config;
                config.defense = id;
                config.trials = 7;
                config.seed = 23;
                const bool clock_edge_tor =
                    atk->name() == "Clock Edge" && id == jsk::defenses::defense_id::tor_browser;
                jsk::attacks::attack_outcome outcome;
                if (clock_edge_tor) cal.boundary();
                r.pieces.push_back(cal.piece([&] {
                    const auto span = tr_.span(clock_edge_tor ? "attacks.clock_edge_tor"
                                                              : "attacks.table1_cell");
                    outcome = atk->run(config);
                }));
                if (clock_edge_tor) cal.boundary();
                const std::string cell = atk->name() + "/" + jsk::defenses::to_string(id);
                if (outcome.prevented != jsk::attacks::expected_prevented(atk->name(), id)) {
                    fail(r, "Table I " + cell + " differs from attacks/expected.h");
                }
                char buf[64];
                std::snprintf(buf, sizeof(buf), "=%d,%.17g\n", outcome.prevented ? 1 : 0,
                              outcome.accuracy);
                text += cell + buf;
            }
        }
        return text;
    }

    static void fail(op_result& r, const std::string& why)
    {
        if (r.ok) r.error = why;
        r.ok = false;
    }

    tracer& tr_;
    std::vector<std::string> first_outputs_;
};

}  // namespace

std::unique_ptr<workload> make_paper_tables(const run_options& /*opt*/, tracer& tr)
{
    return std::make_unique<paper_tables>(tr);
}

}  // namespace perfbench
