// The workload interface the harness drives, and the four workloads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;     // tiny sizes: every workload in a few seconds
    std::string work_dir;   // scratch space inside the checkout
};

struct op_result {
    std::vector<std::size_t> pieces;  // calibrator pieces the op's time is made of
    double work = 0;                  // work units completed
    bool ok = true;
    std::string error;                // first failed check, when !ok
};

/// A closed-loop workload: one client, one worker, the next op starts when
/// the last one returns. The harness times setup() as one calibrated piece
/// (several times per run), then calls run_op() until the run's time is
/// up, then final_check(). Traced runs also call probe() at the end and
/// read layer_metrics().
class workload {
public:
    virtual ~workload() = default;
    /// Calibration cadence: timed pieces between two reference runs.
    [[nodiscard]] virtual std::size_t pieces_per_block() const = 0;
    /// Build every input from the seed and warm up. May be called again:
    /// each call starts over from scratch.
    virtual void setup() = 0;
    virtual op_result run_op(std::uint64_t index, calibrator& cal) = 0;
    /// Untimed end-of-run checks; returns "" when they hold.
    virtual std::string final_check() { return {}; }
    /// Traced runs: extra per-layer measurements after the timed loop.
    virtual void probe() {}
    /// `op_ms`: the calibrated times of the run's untraced ops.
    virtual void layer_metrics(std::map<std::string, double>& out, const tracer& tr,
                               const std::vector<double>& op_ms) = 0;
    /// The generated input stream, as text (no repository code runs).
    virtual std::string inputs() = 0;
    /// Filesystem type of the svc store, or "none".
    virtual std::string store_fs() const { return "none"; }
};

std::unique_ptr<workload> make_explore_matrix(const run_options& opt, tracer& tr);
std::unique_ptr<workload> make_dpor_search(const run_options& opt, tracer& tr);
std::unique_ptr<workload> make_svc_waves(const run_options& opt, tracer& tr);
std::unique_ptr<workload> make_paper_tables(const run_options& opt, tracer& tr);

}  // namespace perfbench
