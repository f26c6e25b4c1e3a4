// The benchmark harness: the seeded input generator, host-time spans,
// reference-op calibration, and the metric catalogue every run prints.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using host_clock = std::chrono::steady_clock;

inline double ms_since(host_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(host_clock::now() - t0).count();
}

/// splitmix64: the benchmark's own generator. Every generated input comes
/// from the command-line seed through this, never through repository code,
/// so a program change cannot change what the benchmark feeds it.
class seed_stream {
public:
    seed_stream(std::uint64_t seed, std::uint64_t salt) : state_(seed ^ (salt * k_gamma)) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += k_gamma);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    static constexpr std::uint64_t k_gamma = 0x9e3779b97f4a7c15ULL;
    std::uint64_t state_;
};

/// Host-time spans around the driver's calls into each layer, plus counts
/// taken at the same boundaries. Spans stay in memory; write() emits a
/// Chrome trace and a per-name self-time table at exit. A disabled tracer
/// costs one branch per span.
class tracer {
public:
    explicit tracer(bool enabled) : enabled_(enabled), active_(enabled), t0_(host_clock::now()) {}
    tracer(const tracer&) = delete;
    tracer& operator=(const tracer&) = delete;

    class scope {
    public:
        scope(tracer* t, std::int32_t index) : t_(t), index_(index) {}
        ~scope()
        {
            if (t_ != nullptr) t_->close(index_);
        }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer* t_;
        std::int32_t index_;
    };

    /// Whether spans are being recorded now (a traced run leaves every
    /// other op untraced to measure the tracing overhead).
    [[nodiscard]] bool active() const { return active_; }
    void set_active(bool on) { active_ = enabled_ && on; }
    void set_op(std::uint32_t op) { op_ = op; }

    [[nodiscard]] scope span(const char* name)
    {
        if (!active_) return scope(nullptr, -1);
        return scope(this, open(name));
    }

    /// Add `n` to a named count (traced runs only).
    void count(const std::string& name, double n)
    {
        if (enabled_) counts_[name] += n;
    }

    struct totals {
        std::uint64_t calls = 0;
        double total_ms = 0;
        double self_ms = 0;
        std::vector<double> durations_ms;
    };

    /// Aggregate of every closed span called `name` (empty when none).
    [[nodiscard]] const totals& of(const std::string& name) const;
    [[nodiscard]] double counted(const std::string& name) const;

    /// Write <stem>.trace.json (Chrome trace) and <stem>.layers.tsv.
    /// Returns the paths written.
    std::vector<std::string> write(const std::string& dir, const std::string& stem) const;

private:
    struct span_rec {
        const char* name;
        double start_us;
        double end_us;
        std::int32_t parent;
        std::uint32_t op;
    };

    std::int32_t open(const char* name);
    void close(std::int32_t index);

    static constexpr std::size_t k_max_spans = 100'000;

    bool enabled_;
    bool active_;
    std::uint32_t op_ = 0;
    host_clock::time_point t0_;
    std::vector<span_rec> spans_;  // Chrome-trace detail, capped
    struct open_span {
        std::int32_t index;
        const char* name;
        host_clock::time_point start;
        double child_ms;
    };
    std::vector<open_span> stack_;
    std::map<std::string, totals> totals_;
    std::map<std::string, double> counts_;
};

/// Calibration against the reference op (cal_ref.h). Timed pieces of work
/// are grouped into blocks; a reference run opens and closes every block.
/// A block closes after a fixed number of pieces (the workload's cadence,
/// a count so that the share of pieces that follow a reference run does
/// not depend on host speed) or at a boundary(): around set-ups, between
/// paper artifacts. A piece's calibrated time is its raw time x cal_ref /
/// the adjacent reference time, taken as the median of the two reference
/// runs before and the two after its block, so one disturbed reference
/// run cannot skew a block.
class calibrator {
public:
    calibrator(double cal_ref_ms, std::size_t pieces_per_block, tracer& tr)
        : cal_ref_ms_(cal_ref_ms), pieces_per_block_(pieces_per_block), tr_(tr)
    {
    }

    /// Run `fn` as one timed piece; returns the piece id.
    template <class Fn>
    std::size_t piece(Fn&& fn)
    {
        if (refs_.empty()) run_ref();
        const auto t0 = host_clock::now();
        std::forward<Fn>(fn)();
        const double raw = ms_since(t0);
        pieces_.push_back({refs_.size() - 1, raw});
        if (++block_pieces_ >= pieces_per_block_) run_ref();
        return pieces_.size() - 1;
    }

    /// Close the current block now (no-op when it holds no piece).
    void boundary()
    {
        if (block_pieces_ > 0) run_ref();
    }

    [[nodiscard]] double raw_ms(std::size_t piece) const { return pieces_[piece].raw_ms; }
    /// Valid once the piece's block is closed (always after boundary()).
    [[nodiscard]] double cal_ms(std::size_t piece) const;
    [[nodiscard]] const std::vector<double>& refs() const { return refs_; }
    /// False once any reference run returned the wrong checksum.
    [[nodiscard]] bool reference_ok() const { return reference_ok_; }

private:
    void run_ref();

    struct piece_rec {
        std::size_t block;
        double raw_ms;
    };

    double cal_ref_ms_;
    std::size_t pieces_per_block_;
    tracer& tr_;
    std::vector<double> refs_;  // refs_[b] opens block b and closes block b-1
    std::vector<piece_rec> pieces_;
    std::size_t block_pieces_ = 0;
    bool reference_ok_ = true;
};

/// One metric as printed: name, unit, value.
struct metric {
    std::string name;
    std::string unit;
    double value = 0;
};

struct metric_spec {
    const char* name;
    const char* unit;
};

/// The end-to-end metrics every untraced run prints, in BENCHMARK.json order.
const std::vector<metric_spec>& end_to_end_metrics();
/// The per-layer metrics every traced run prints, in BENCHMARK.json order.
/// A workload that never calls into a layer reports 0 for its metrics.
const std::vector<metric_spec>& per_layer_metrics();

double median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);

}  // namespace perfbench
