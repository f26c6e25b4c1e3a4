// Table I: Evaluation of Defenses against Web Concurrency Attacks.
//
// Runs every attack row under every defense column and prints the prevention
// matrix (D = defended, V = vulnerable), annotated with the expected verdict
// reconstructed from the paper's prose (see DESIGN.md). "legacy" covers the
// paper's "Legacy Three" column (same verdict for Chrome/Firefox/Edge — the
// timing attacks run on the Chrome profile here; bench_table2 exercises the
// per-browser profiles).
#include <cstdio>

#include "attacks/attack.h"
#include "attacks/expected.h"
#include "bench/bench_util.h"

using namespace jsk;

int main()
{
    const auto defenses_list = defenses::all_defense_ids();
    std::printf("=== Table I: defenses vs web concurrency attacks ===\n");
    std::printf("cell: measured verdict (D=defended, V=vulnerable); '!' = differs from "
                "the reconstruction in attacks/expected.h\n\n");

    std::vector<std::string> header{"attack"};
    for (const auto id : defenses_list) header.push_back(defenses::to_string(id));
    bench::print_row(header, 16);
    bench::print_rule(header.size(), 16);

    int mismatches = 0;
    std::string family;
    for (auto& atk : attacks::all_attacks()) {
        if (atk->family() != family) {
            family = atk->family();
            std::printf("-- %s --\n", family.c_str());
        }
        std::vector<std::string> row{atk->name()};
        for (const auto id : defenses_list) {
            attacks::run_config config;
            config.defense = id;
            config.trials = 7;
            config.seed = 23;
            const auto outcome = atk->run(config);
            const bool expected = attacks::expected_prevented(atk->name(), id);
            std::string cell = outcome.prevented ? "D" : "V";
            if (!outcome.is_cve) cell += " (acc " + bench::fmt(outcome.accuracy, 2) + ")";
            if (outcome.prevented != expected) {
                cell += " !";
                ++mismatches;
            }
            row.push_back(cell);
        }
        bench::print_row(row, 16);
    }
    std::printf("\nmismatches vs expected matrix: %d / 132\n", mismatches);
    return mismatches == 0 ? 0 : 1;
}
