#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cal_ref.h"

namespace perfbench {

// --- tracer -----------------------------------------------------------------

std::int32_t tracer::open(const char* name)
{
    const auto now = host_clock::now();
    std::int32_t index = -1;
    if (spans_.size() < k_max_spans) {
        index = static_cast<std::int32_t>(spans_.size());
        const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
        const double start_us =
            std::chrono::duration<double, std::micro>(now - t0_).count();
        spans_.push_back({name, start_us, start_us, parent, op_});
    }
    stack_.push_back({index, name, now, 0.0});
    return index;
}

void tracer::close(std::int32_t index)
{
    const auto now = host_clock::now();
    const open_span top = stack_.back();
    stack_.pop_back();
    const double dur_ms = std::chrono::duration<double, std::milli>(now - top.start).count();
    if (index >= 0) {
        spans_[static_cast<std::size_t>(index)].end_us =
            std::chrono::duration<double, std::micro>(now - t0_).count();
    }
    totals& t = totals_[top.name];
    ++t.calls;
    t.total_ms += dur_ms;
    t.self_ms += dur_ms - top.child_ms;
    t.durations_ms.push_back(dur_ms);
    if (!stack_.empty()) stack_.back().child_ms += dur_ms;
}

const tracer::totals& tracer::of(const std::string& name) const
{
    static const totals none;
    const auto it = totals_.find(name);
    return it == totals_.end() ? none : it->second;
}

double tracer::counted(const std::string& name) const
{
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
}

std::vector<std::string> tracer::write(const std::string& dir, const std::string& stem) const
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const std::string trace_path = (fs::path(dir) / (stem + ".trace.json")).string();
    const std::string table_path = (fs::path(dir) / (stem + ".layers.tsv")).string();
    {
        std::ofstream out(trace_path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span_rec& s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                          "\"parent\":%d}}",
                          i == 0 ? "" : ",\n", s.name, s.start_us, s.end_us - s.start_us,
                          s.op, s.parent);
            out << buf;
        }
        out << "]}\n";
    }
    {
        // Self time per span name and per layer (the name's first segment).
        std::map<std::string, double> layer_self;
        for (const auto& [name, t] : totals_) {
            layer_self[name.substr(0, name.find('.'))] += t.self_ms;
        }
        std::ofstream out(table_path);
        out << "# span\tcalls\ttotal_ms\tself_ms\n";
        for (const auto& [name, t] : totals_) {
            out << name << '\t' << t.calls << '\t' << t.total_ms << '\t' << t.self_ms << '\n';
        }
        out << "# layer\tself_ms\n";
        for (const auto& [layer, ms] : layer_self) out << layer << '\t' << ms << '\n';
        out << "# count\tvalue\n";
        for (const auto& [name, v] : counts_) out << name << '\t' << v << '\n';
    }
    return {trace_path, table_path};
}

// --- calibrator -------------------------------------------------------------

void calibrator::run_ref()
{
    std::uint64_t sum = 0;
    const auto t0 = host_clock::now();
    {
        const auto span = tr_.span("bench.cal_ref");
        sum = cal_ref_op();
    }
    refs_.push_back(ms_since(t0));
    if (sum != cal_ref_checksum) reference_ok_ = false;
    block_pieces_ = 0;
}

double calibrator::cal_ms(std::size_t piece) const
{
    const piece_rec& p = pieces_[piece];
    if (p.block + 1 >= refs_.size()) {
        throw std::logic_error("calibrator: piece read before its block closed");
    }
    const std::size_t first = p.block == 0 ? 0 : p.block - 1;
    const std::size_t last = std::min(refs_.size(), p.block + 3);
    const std::vector<double> near(refs_.begin() + static_cast<std::ptrdiff_t>(first),
                                   refs_.begin() + static_cast<std::ptrdiff_t>(last));
    return p.raw_ms * cal_ref_ms_ / median(near);
}

// --- metric catalogue -------------------------------------------------------

const std::vector<metric_spec>& end_to_end_metrics()
{
    static const std::vector<metric_spec> specs{
        {"setup_s", "s"},
        {"work_per_s", "1/s"},
        {"op_p50_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<metric_spec>& per_layer_metrics()
{
    static const std::vector<metric_spec> specs{
        {"core.seal_ms", "ms"},
        {"core.restore_kb_per_fork", "KB"},
        {"core.cow_faults", "count"},
        {"core.image_kb", "KB"},
        {"attacks.trial_us", "us"},
        {"par.sweep_overhead_pct", "%"},
        {"sim.choices_per_trial", "count"},
        {"attacks.distinct_walk_ratio", "1"},
        {"explore.runs_per_search", "count"},
        {"explore.prune_ratio", "1"},
        {"explore.budget_hits", "1"},
        {"explore.witnesses", "1"},
        {"explore.analysis_share", "1"},
        {"explore.analysis_us_per_run", "us"},
        {"sim.program_us_per_run", "us"},
        {"sim.exec_steps_per_run", "count"},
        {"sim.accesses_per_run", "count"},
        {"wm.rf_choices_per_run", "count"},
        {"kernel.boot_us", "us"},
        {"kernel.events_per_run", "count"},
        {"svc.reopen_ms", "ms"},
        {"svc.serve_ms", "ms"},
        {"svc.wave_p90_ms", "ms"},
        {"svc.client_wire_us", "us"},
        {"svc.trials_per_wave", "count"},
        {"svc.mem_hit_ratio", "1"},
        {"svc.disk_hit_ratio", "1"},
        {"svc.store_get_us", "us"},
        {"svc.store_appends", "count"},
        {"svc.fsyncs", "count"},
        {"svc.error_frames", "count"},
        {"par.cache_kb", "KB"},
        {"attacks.chaos_trial_us", "us"},
        {"obs.trace_kb_per_chaos_trial", "KB"},
        {"faults.injected_per_chaos_trial", "count"},
        {"attacks.table1_ms", "ms"},
        {"attacks.clock_edge_tor_ms", "ms"},
        {"attacks.fig2_ms", "ms"},
        {"attacks.table2_ms", "ms"},
        {"attacks.ablation_ms", "ms"},
        {"workloads.fig3_ms", "ms"},
        {"workloads.table3_ms", "ms"},
        {"workloads.dromaeo_ms", "ms"},
        {"workloads.worker_ms", "ms"},
        {"workloads.compat_ms", "ms"},
        {"defenses.api_compat_ms", "ms"},
        {"bench.cal_ms", "ms"},
        {"bench.raw_work_per_s", "1/s"},
        {"bench.raw_op_p50_ms", "ms"},
        {"bench.trace_overhead", "1"},
    };
    return specs;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> xs)
{
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p)
{
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(index, xs.size() - 1)];
}

}  // namespace perfbench
