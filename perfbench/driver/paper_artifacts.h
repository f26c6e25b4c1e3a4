// The paper artifacts paper-tables regenerates besides Table I. Each one
// calls the library entry points its bench_* binary calls, with the same
// fixed paper seeds, and returns its deterministic output (every number it
// computes, at full precision) plus the shape check its bench binary exits
// on.
#pragma once

#include <string>

namespace perfbench::paper {

struct artifact {
    std::string output;
    bool shape_holds = false;
};

artifact fig2();        // bench_fig2: script parsing, reported time vs size
artifact table2();      // bench_table2: SVG filtering and loopscan
artifact fig3();        // bench_fig3: load-time CDF over 500 synthetic sites
artifact table3();      // bench_table3: Raptor tp6-1 hero-element loads
artifact dromaeo();     // bench_dromaeo: per-test JSKernel overhead
artifact worker();      // bench_worker: worker creation
artifact compat();      // bench_compat: DOM cosine similarity
artifact api_compat();  // bench_api_compat: 20 API-specific apps
artifact ablation();    // bench_ablation: design-choice ablations

}  // namespace perfbench::paper
