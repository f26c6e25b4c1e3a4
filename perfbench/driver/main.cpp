// perfbench — the repository's benchmark driver (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --cal-ref-ms <ms> --work-dir <dir>
//             [--rev <git revision>] [--smoke] [--dump-inputs] [--self-test]
//
// One process, one worker. It sets the workload up several times (the
// median is setup_s), runs its ops in a closed loop for --seconds, checks
// every op's output, and prints every metric by name with its unit. The
// last stdout line is the JSON result object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cal_ref.h"
#include "harness.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

// Set-ups per run; setup_s is their median.
constexpr int k_setups = 3;

struct cli {
    run_options run;
    double cal_ref_ms = 0;
    std::string rev = "unknown";
    bool dump_inputs = false;
    bool self_test = false;
};

[[noreturn]] void usage(const std::string& why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

double parse_number(const char* flag, const char* text)
{
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
        usage(std::string("bad value for ") + flag + ": '" + text + "'");
    }
    return v;
}

cli parse(int argc, char** argv)
{
    cli c;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            c.run.workload = value();
        } else if (a == "--seed") {
            const char* v = value();
            char* end = nullptr;
            c.run.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0') usage(std::string("bad --seed '") + v + "'");
        } else if (a == "--seconds") {
            c.run.seconds = parse_number("--seconds", value());
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            c.run.trace = v == "1";
            have_trace = true;
        } else if (a == "--cal-ref-ms") {
            c.cal_ref_ms = parse_number("--cal-ref-ms", value());
        } else if (a == "--work-dir") {
            c.run.work_dir = value();
        } else if (a == "--rev") {
            c.rev = value();
        } else if (a == "--smoke") {
            c.run.smoke = true;
        } else if (a == "--dump-inputs") {
            c.dump_inputs = true;
        } else if (a == "--self-test") {
            c.self_test = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (c.self_test) return c;
    if (c.run.workload.empty()) usage("--workload is required");
    if (c.dump_inputs) return c;
    if (!have_trace) usage("--trace is required");
    if (c.cal_ref_ms <= 0) usage("--cal-ref-ms is required");
    if (c.run.work_dir.empty()) usage("--work-dir is required");
    return c;
}

std::unique_ptr<workload> make(const run_options& opt, tracer& tr)
{
    if (opt.workload == "explore-matrix") return make_explore_matrix(opt, tr);
    if (opt.workload == "dpor-search") return make_dpor_search(opt, tr);
    if (opt.workload == "svc-waves") return make_svc_waves(opt, tr);
    if (opt.workload == "paper-tables") return make_paper_tables(opt, tr);
    usage("unknown workload '" + opt.workload + "'");
}

std::string cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// VmHWM of this process image. (getrusage's ru_maxrss is no substitute:
/// it keeps the peak of the image that exec'd us, e.g. the Python wrapper.)
double peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

int self_test()
{
    int bad = 0;
    for (int i = 0; i < 2; ++i) {
        const std::uint64_t sum = cal_ref_op();
        if (sum != cal_ref_checksum) {
            std::printf("self-test: reference checksum %016llx, expected %016llx\n",
                        static_cast<unsigned long long>(sum),
                        static_cast<unsigned long long>(cal_ref_checksum));
            ++bad;
        }
    }
    if (!cal_ref_pool_is_closed()) {
        std::printf("self-test: reference pool fell through to another allocator\n");
        ++bad;
    }
    std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
    return bad == 0 ? 0 : 1;
}

struct op_rec {
    double raw_ms = 0;
    double cal_ms = 0;
    double work = 0;
    bool traced = false;
};

void print_metric(const std::string& name, double value, const std::string& unit)
{
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

std::string json_number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv)
{
    const cli c = parse(argc, argv);
    if (c.self_test) return self_test();

    tracer tr(c.run.trace);
    std::unique_ptr<workload> wl = make(c.run, tr);
    if (c.dump_inputs) {
        std::fputs(wl->inputs().c_str(), stdout);
        return 0;
    }

    calibrator cal(c.cal_ref_ms, wl->pieces_per_block(), tr);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;
    const auto fail = [&](const std::string& why) {
        ++failed;
        if (first_error.empty()) first_error = why;
    };

    // Set-up, several times; the last one's state serves the timed ops.
    std::vector<std::size_t> setup_pieces;
    for (int k = 0; k < k_setups; ++k) {
        cal.boundary();
        setup_pieces.push_back(cal.piece([&] { wl->setup(); }));
        cal.boundary();
    }

    // The closed loop.
    std::vector<op_result> results;
    std::vector<bool> traced;
    const auto t_run = host_clock::now();
    for (std::uint64_t i = 0;; ++i) {
        tr.set_active(i % 2 == 0);
        tr.set_op(static_cast<std::uint32_t>(i));
        op_result r;
        try {
            r = wl->run_op(i, cal);
        } catch (const std::exception& e) {
            r.ok = false;
            r.error = std::string("op threw: ") + e.what();
        }
        ++attempted;
        if (!r.ok) fail("op " + std::to_string(i) + ": " + r.error);
        traced.push_back(tr.active());
        results.push_back(std::move(r));
        if (ms_since(t_run) >= c.run.seconds * 1000.0) break;
    }
    cal.boundary();
    const double run_wall_s = ms_since(t_run) / 1000.0;
    tr.set_active(true);
    ++attempted;
    try {
        if (const std::string why = wl->final_check(); !why.empty()) fail("final check: " + why);
    } catch (const std::exception& e) {
        fail(std::string("final check threw: ") + e.what());
    }
    if (c.run.trace) wl->probe();
    if (!cal.reference_ok()) fail("reference op returned a wrong checksum");

    std::vector<op_rec> ops;
    for (std::size_t i = 0; i < results.size(); ++i) {
        op_rec o;
        for (const std::size_t p : results[i].pieces) {
            o.raw_ms += cal.raw_ms(p);
            o.cal_ms += cal.cal_ms(p);
        }
        o.work = results[i].work;
        o.traced = traced[i];
        ops.push_back(o);
    }
    // Op times and throughput over the run's ops (optionally the untraced
    // ones only), calibrated or raw.
    struct series {
        std::vector<double> ms;
        double work_per_s = 0;
    };
    const auto collect = [&](bool untraced_only, bool calibrated) {
        series s;
        double work = 0;
        double total_ms = 0;
        for (const op_rec& o : ops) {
            if (untraced_only && o.traced) continue;
            s.ms.push_back(calibrated ? o.cal_ms : o.raw_ms);
            work += o.work;
            total_ms += s.ms.back();
        }
        s.work_per_s = total_ms > 0 ? work / (total_ms / 1000.0) : 0;
        return s;
    };
    std::vector<double> setup_s;
    for (const std::size_t p : setup_pieces) setup_s.push_back(cal.cal_ms(p) / 1000.0);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
                c.run.workload.c_str(), static_cast<unsigned long long>(c.run.seed),
                c.run.seconds, c.run.trace ? 1 : 0, c.run.smoke ? 1 : 0);
    std::printf("machine cpu=\"%s\" nproc=%u build=%s compiler=\"%s\" rev=%s svc_store_fs=%s\n",
                cpu_model().c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, c.rev.c_str(),
                wl->store_fs().c_str());
    std::printf("calibration cal_ref_ms=%g pieces_per_block=%zu reference_runs=%zu "
                "reference_median_ms=%.4f ops=%zu run_wall_s=%.3f\n",
                c.cal_ref_ms, wl->pieces_per_block(), cal.refs().size(), median(cal.refs()),
                ops.size(), run_wall_s);

    std::vector<metric> out;
    std::map<std::string, double> values;
    if (!c.run.trace) {
        const series cal_ops = collect(false, true);
        const series raw_ops = collect(false, false);
        values["setup_s"] = median(setup_s);
        values["work_per_s"] = cal_ops.work_per_s;
        values["op_p50_ms"] = median(cal_ops.ms);
        values["peak_rss_mb"] = peak_rss_mb();
        for (const metric_spec& s : end_to_end_metrics()) {
            out.push_back({s.name, s.unit, values[s.name]});
        }
        print_metric("bench.raw_work_per_s", raw_ops.work_per_s, "1/s");
        print_metric("bench.raw_op_p50_ms", median(raw_ops.ms), "ms");
        print_metric("bench.cal_ms", median(cal.refs()), "ms");
    } else {
        const series untraced = collect(true, true);
        const series raw_untraced = collect(true, false);
        std::vector<double> traced_ms;
        for (const op_rec& o : ops) {
            if (o.traced) traced_ms.push_back(o.cal_ms);
        }
        wl->layer_metrics(values, tr, untraced.ms);
        values["bench.cal_ms"] = median(cal.refs());
        values["bench.raw_work_per_s"] = raw_untraced.work_per_s;
        values["bench.raw_op_p50_ms"] = median(raw_untraced.ms);
        const double untraced_p50 = median(untraced.ms);
        values["bench.trace_overhead"] =
            untraced_p50 > 0 && !traced_ms.empty() ? median(traced_ms) / untraced_p50 : 1.0;
        for (const metric_spec& s : per_layer_metrics()) {
            const auto it = values.find(s.name);
            out.push_back({s.name, s.unit, it == values.end() ? 0.0 : it->second});
        }
        const std::string stem = c.run.workload + "-seed" + std::to_string(c.run.seed);
        for (const std::string& path : tr.write(c.run.work_dir + "/traces", stem)) {
            std::printf("wrote %s\n", path.c_str());
        }
    }
    for (metric& m : out) {
        if (!std::isfinite(m.value)) {
            fail("metric " + m.name + " is not finite");
            m.value = 0;
        }
    }
    for (const metric& m : out) print_metric(m.name, m.value, m.unit);
    const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);
    print_metric("error_rate", error_rate, "1");
    if (!first_error.empty()) std::printf("first error: %s\n", first_error.c_str());

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i != 0) json += ", ";
        json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
                ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
