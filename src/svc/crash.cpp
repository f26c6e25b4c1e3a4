#include "svc/crash.h"

#include <filesystem>
#include <stdexcept>

#include "sim/hash.h"
#include "svc/client.h"
#include "svc/service.h"
#include "svc/vfs.h"

namespace jsk::svc {

namespace fs = std::filesystem;

namespace {

using sim::mix64;

/// Frame sink with crash points around every write: the "process died
/// while the response was in flight" half of the matrix. Bytes written
/// before the death stay in the underlying pipe — exactly what a kernel
/// socket buffer would have delivered to the client of a dead peer.
class crash_sink final : public byte_sink {
public:
    crash_sink(byte_sink& inner, faults::io_injector* inj)
        : inner_(&inner), inj_(inj)
    {
    }

    void write(const char* data, std::size_t n) override
    {
        if (inj_ != nullptr && inj_->enabled()) inj_->crash_point("sink.write.before");
        inner_->write(data, n);
        if (inj_ != nullptr && inj_->enabled()) inj_->crash_point("sink.write.after");
    }

    void flush() override
    {
        if (inj_ != nullptr && inj_->enabled()) inj_->crash_point("sink.flush");
        inner_->flush();
    }

private:
    byte_sink* inner_;
    faults::io_injector* inj_;
};

/// One server incarnation: build a service over `store_dir` with the given
/// plan, feed it `request`, and return whatever response bytes escaped
/// before completion, a crash, or an unrecoverable injected I/O failure.
struct incarnation_result {
    std::string response;
    bool crashed = false;
    bool io_failed = false;
    std::uint64_t crash_points_seen = 0;
};

incarnation_result run_incarnation(const crash_matrix_options& opt,
                                   const std::string& store_dir,
                                   const faults::io_plan& plan,
                                   const std::string& request)
{
    incarnation_result r;
    faults::io_injector inj(plan);
    vfs faulted(&inj);
    mem_pipe out;
    crash_sink sink(out, &inj);
    try {
        service_options so;
        so.store_dir = store_dir;
        so.store_shards = opt.shards;
        so.jobs = opt.workers;
        so.snapshots = opt.snapshots;
        so.fs = &faulted;
        service svc(so);
        string_source in(request);
        svc.serve(in, sink);
    } catch (const faults::crash_error&) {
        r.crashed = true;
    } catch (const io_error&) {
        // Construction-time injected failure (store open, intent epoch
        // claim): the "connection" was refused; the client backs off and
        // redials a fresh incarnation.
        r.io_failed = true;
    }
    r.crash_points_seen = inj.crash_points_seen();
    r.response.resize(out.size());
    out.read(r.response.data(), r.response.size());
    return r;
}

/// The normalized replayable byte stream: every result frame payload,
/// re-encoded in seq order, concatenated. What must be invariant under
/// crashes.
std::string normalized_frames(const session_client::wave_outcome& w)
{
    std::string out;
    for (const wire_result& r : w.results) out += encode_result(r);
    return out;
}

}  // namespace

crash_matrix_report run_crash_matrix(const crash_matrix_options& opt)
{
    if (opt.jobs.empty()) {
        throw std::invalid_argument("svc::run_crash_matrix: empty job list");
    }
    if (opt.dir.empty()) {
        throw std::invalid_argument("svc::run_crash_matrix: empty working dir");
    }
    fs::create_directories(opt.dir);
    crash_matrix_report report;

    // One matrix run: drive the wave to completion against a server whose
    // first incarnation dies at crash point `crash_at` (0 = never), with
    // `plan_salt` diversifying the fault streams of retry incarnations.
    const auto drive = [&](const std::string& store_dir, std::uint64_t crash_at,
                           std::uint64_t plan_salt) {
        std::uint64_t incarnation = 0;
        session_client::options copt;
        copt.tenant = "crash-matrix";
        copt.max_attempts = opt.max_attempts;
        session_client client(
            [&](const std::string& request) {
                faults::io_plan plan = opt.base_plan;
                plan.crash_at = incarnation == 0 ? crash_at : 0;
                plan.seed = mix64(opt.base_plan.seed ^ plan_salt ^
                                  (incarnation * 0x9E3779B97F4A7C15ULL));
                ++incarnation;
                ++report.incarnations;
                const incarnation_result r =
                    run_incarnation(opt, store_dir, plan, request);
                if (r.crashed) ++report.crashes;
                if (r.io_failed) ++report.io_failures;
                return r.response;
            },
            copt);
        return client.run_wave(opt.jobs);
    };

    // Phase 0 — reference: no faults, no crash. Also the boundary count:
    // a second, counting run arms the injector with the unreachable
    // crash_count_only so every boundary increments without firing.
    const std::string ref_dir = (fs::path(opt.dir) / "reference").string();
    fs::remove_all(ref_dir);
    {
        faults::io_plan clean;  // null plan: pure passthrough
        session_client::options copt;
        copt.tenant = "crash-matrix";
        copt.max_attempts = opt.max_attempts;
        session_client client(
            [&](const std::string& request) {
                return run_incarnation(opt, ref_dir, clean, request).response;
            },
            copt);
        const auto outcome = client.run_wave(opt.jobs);
        report.reference_json = outcome.merged_json;
        report.reference_frames = normalized_frames(outcome);
        if (!outcome.complete) {
            report.mismatches.push_back(0);
            return report;  // the fault-free path must work before any matrix
        }
    }
    fs::remove_all(ref_dir);

    // Count the boundaries of one full fault-free conversation.
    {
        const std::string count_dir = (fs::path(opt.dir) / "count").string();
        fs::remove_all(count_dir);
        faults::io_plan counting = opt.base_plan;
        counting.crash_at = faults::crash_count_only;
        // Build the same first-connection request session_client would send.
        mem_pipe req;
        write_frame(req, frame_type::hello,
                    encode_hello("crash-matrix", /*resumable=*/true));
        for (const wire_job& j : opt.jobs) {
            write_frame(req, frame_type::job, encode_job(j));
        }
        write_frame(req, frame_type::end_wave, std::string());
        std::string request;
        request.resize(req.size());
        req.read(request.data(), request.size());
        const incarnation_result r =
            run_incarnation(opt, count_dir, counting, request);
        report.crash_points = r.crash_points_seen;
        fs::remove_all(count_dir);
    }

    // The matrix: kill the first incarnation at every counted boundary.
    for (std::uint64_t k = 1; k <= report.crash_points; ++k) {
        const std::string run_dir =
            (fs::path(opt.dir) / ("crash-" + std::to_string(k))).string();
        fs::remove_all(run_dir);
        const auto outcome = drive(run_dir, k, /*plan_salt=*/k * 0x51AB0001ULL);
        ++report.runs;
        report.resumes += outcome.resumes;
        report.resubmits += outcome.resubmits;
        if (!outcome.complete || outcome.merged_json != report.reference_json ||
            normalized_frames(outcome) != report.reference_frames) {
            report.mismatches.push_back(k);
        }
        fs::remove_all(run_dir);
    }
    return report;
}

}  // namespace jsk::svc
