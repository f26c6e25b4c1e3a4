// svc-waves: one 128-job wave per op through svc::service::serve over an
// in-memory pipe. The client encodes the frames and decodes up to
// wave_done. Mix: ~25 % new jobs, ~25 % disk recalls, ~50 % memory hits.
// New jobs are half explore replays of decision strings recorded from
// walks at set-up, half chaos jobs with sampled fault plans (random
// programs included). Set-up populates the store, then reopens the
// service over it.
//
// Keeping the mix and the memory steady: the witness universe (every
// recorded explore replay plus 1024 seeded chaos witnesses) is stored at
// set-up, and every 16 waves the client starts a new cache cycle. It
// clears the service's memory tier, evicts the cycle's new witnesses from
// the store and compacts it, so those are simulated afresh during the
// cycle and every other witness is a disk recall again. The store, the
// caches and the client's state stay bounded however many waves a run
// completes. The first wave of a cycle has no memory hits; it takes 96
// disk recalls instead.
//
// The store lives inside the checkout (the benchmark writes nowhere
// else), which is not tmpfs. Real-disk fsync latency is out of scope, so
// this file defines fsync as a counting no-op for the whole process: the
// store's ack barrier and the intent log still make every fsync call they
// would make on tmpfs, where fsync returns at once.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/chaos_sweep.h"
#include "attacks/explore_sweep.h"
#include "core/snapshot.h"
#include "core/world.h"
#include "defenses/defense.h"
#include "faults/plan.h"
#include "par/cache.h"
#include "svc/record.h"
#include "svc/service.h"
#include "svc/store.h"
#include "svc/wire.h"
#include "wm/model.h"
#include "workload.h"

namespace {

std::uint64_t g_fsync_calls = 0;

}  // namespace

extern "C" int fsync(int /*fd*/)
{
    ++g_fsync_calls;
    return 0;
}

namespace perfbench {

namespace {

namespace svc = jsk::svc;

constexpr std::uint64_t k_salt = 0x5c;
constexpr std::size_t k_wave_jobs = 128;
constexpr std::size_t k_smoke_wave_jobs = 16;
constexpr std::uint64_t k_cycle_waves = 16;
constexpr std::uint64_t k_browser_seeds[] = {17, 18, 19, 20};
constexpr std::uint64_t k_walks_per_cell = 4;
constexpr std::uint64_t k_warmup_waves = 2;
constexpr std::uint64_t k_chaos_seed = 17;
const char* const k_tenant = "tenant-a";

std::string fs_type_name(const std::string& path)
{
    struct statfs st {};
    if (statfs(path.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
        case 0x01021994UL: return "tmpfs";
        case 0xEF53UL: return "ext2/3/4";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        case 0x794c7630UL: return "overlayfs";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
            return buf;
        }
    }
}

class svc_waves final : public workload {
public:
    svc_waves(const run_options& opt, tracer& tr)
        : opt_(opt), tr_(tr), wave_jobs_(opt.smoke ? k_smoke_wave_jobs : k_wave_jobs),
          root_((std::filesystem::path(opt.work_dir) /
                 ("svc-" + std::to_string(::getpid()))).string()),
          cve_ids_(jsk::attacks::cve_ids())
    {
    }

    ~svc_waves() override
    {
        svc_.reset();
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    svc_waves(const svc_waves&) = delete;
    svc_waves& operator=(const svc_waves&) = delete;

    // One wave is ~4 ms: a reference run every ~30 ms of waves.
    [[nodiscard]] std::size_t pieces_per_block() const override { return 8; }

    void setup() override
    {
        svc_.reset();
        ++setups_;
        store_dir_ = root_ + "/store-" + std::to_string(setups_);
        std::filesystem::remove_all(store_dir_);
        std::filesystem::create_directories(store_dir_);
        mix_ = seed_stream(opt_.seed, k_salt);
        first_result_.clear();
        build_universe();

        // Store the whole universe, then reopen the service over it.
        {
            svc::service first(options());
            svc::service::session& sess = first.connect(k_tenant);
            std::uint64_t id = 0;
            for (std::size_t i = 0; i < universe_.size(); ++i) {
                sess.submit({++id, universe_[i]});
                if (sess.pending() == wave_jobs_ || i + 1 == universe_.size()) (void)sess.flush();
            }
        }
        {
            const auto span = tr_.span("svc.reopen");
            svc_ = std::make_unique<svc::service>(options());
        }
        waves_ = 0;
        for (std::uint64_t w = 0; w < k_warmup_waves; ++w) (void)wave(nullptr);
        warm_store_ = svc_->disk()->stats();
        trials_ = hits_mem_ = hits_disk_ = jobs_ = error_frames_ = 0;
        timed_waves_ = 0;
    }

    op_result run_op(std::uint64_t /*index*/, calibrator& cal) override
    {
        op_result r = wave(&cal);
        ++timed_waves_;
        return r;
    }

    void probe() override
    {
        // Direct store recalls of the first 256 witnesses in the universe.
        svc::store& st = *svc_->disk();
        for (std::size_t i = 0; i < universe_bytes_.size() && i < 256; ++i) {
            const auto span = tr_.span("svc.store_get");
            (void)st.get(universe_bytes_[i]);
        }
        // The last wave's chaos witnesses as single forked trials.
        jsk::attacks::chaos_options copt;
        std::map<bool, std::unique_ptr<jsk::core::world_snapshot>> snaps;
        for (const jsk::par::witness_key& key : last_chaos_) {
            const bool kernel = key.defense == "jskernel";
            auto& snap = snaps[kernel];
            if (!snap) {
                snap = jsk::core::snapshot_world(
                    jsk::attacks::chaos_world_recipe(kernel, key.seed, copt));
            }
            const jsk::faults::plan p = jsk::faults::plan::parse(key.plan);
            jsk::attacks::chaos_trial_result res;
            {
                const auto span = tr_.span("attacks.run_chaos_trial_forked");
                if (key.program.rfind("program:", 0) == 0) {
                    res = jsk::attacks::run_chaos_program_forked(
                        *snap, std::stoull(key.program.substr(8)), p, copt);
                } else {
                    res = jsk::attacks::run_chaos_trial_forked(*snap, key.program, p, copt);
                }
            }
            tr_.count("obs.trace_bytes", static_cast<double>(res.trace_json.size()));
            tr_.count("faults.injected", static_cast<double>(res.faults_injected));
            tr_.count("attacks.chaos_trials", 1);
        }
    }

    void layer_metrics(std::map<std::string, double>& out, const tracer& tr,
                       const std::vector<double>& op_ms) override
    {
        out["svc.reopen_ms"] = median(tr.of("svc.reopen").durations_ms);
        out["svc.serve_ms"] = median(tr.of("svc.serve").durations_ms);
        out["svc.wave_p90_ms"] = percentile(op_ms, 90);
        const tracer::totals& enc = tr.of("svc.client_encode");
        const tracer::totals& dec = tr.of("svc.client_decode");
        if (enc.calls > 0) {
            out["svc.client_wire_us"] =
                (enc.total_ms + dec.total_ms) * 1000 / static_cast<double>(enc.calls);
        }
        const double waves = static_cast<double>(timed_waves_);
        if (waves > 0) {
            out["svc.trials_per_wave"] = static_cast<double>(trials_) / waves;
            const svc::store_stats& st = svc_->disk()->stats();
            out["svc.store_appends"] =
                static_cast<double>(st.appended_records - warm_store_.appended_records) / waves;
            out["svc.fsyncs"] = static_cast<double>(st.fsyncs - warm_store_.fsyncs) / waves;
        }
        if (jobs_ > 0) {
            const double jobs = static_cast<double>(jobs_);
            out["svc.mem_hit_ratio"] = static_cast<double>(hits_mem_) / jobs;
            out["svc.disk_hit_ratio"] = static_cast<double>(hits_disk_) / jobs;
        }
        out["svc.store_get_us"] = median(tr.of("svc.store_get").durations_ms) * 1000;
        out["svc.error_frames"] = static_cast<double>(error_frames_);
        out["par.cache_kb"] = static_cast<double>(cache_bytes_) / 1024.0;
        if (const double n = tr.counted("attacks.chaos_trials"); n > 0) {
            out["attacks.chaos_trial_us"] =
                median(tr.of("attacks.run_chaos_trial_forked").durations_ms) * 1000;
            out["obs.trace_kb_per_chaos_trial"] = tr.counted("obs.trace_bytes") / 1024.0 / n;
            out["faults.injected_per_chaos_trial"] = tr.counted("faults.injected") / n;
        }
    }

    std::string inputs() override
    {
        std::string s = "svc-waves wave_jobs=" + std::to_string(wave_jobs_) + "\n";
        seed_stream walks(opt_.seed, k_salt + 2);
        for (int i = 0; i < 32; ++i) s += "walk_seed " + std::to_string(walks.next()) + "\n";
        seed_stream chaos(opt_.seed, k_salt + 1);
        for (std::size_t i = 0; i < chaos_witnesses(); ++i) {
            s += "chaos " + describe(draw_chaos(chaos)) + "\n";
        }
        seed_stream mix(opt_.seed, k_salt);
        for (int i = 0; i < 64; ++i) s += "mix_draw " + std::to_string(mix.next()) + "\n";
        return s;
    }

    std::string store_fs() const override
    {
        return fs_type_name(opt_.work_dir) + " (fsync elided: tmpfs-equivalent; " +
               std::to_string(g_fsync_calls) + " calls)";
    }

private:
    svc::service_options options() const
    {
        svc::service_options so;
        so.store_dir = store_dir_;
        so.jobs = 1;
        so.fsync = true;
        return so;
    }

    /// Chaos witnesses in the universe: four cycles' worth of new ones.
    [[nodiscard]] std::size_t chaos_witnesses() const
    {
        return 4 * k_cycle_waves * (wave_jobs_ / 8);
    }

    /// The witness universe: window-0 random walks of every (CVE, defense,
    /// memory model, browser seed) cell — each distinct decision string is
    /// a replayable explore witness, since the service replays at window 0
    /// too — then the seeded chaos witnesses.
    void build_universe()
    {
        universe_.clear();
        seed_stream walks(opt_.seed, k_salt + 2);
        const auto ids = jsk::attacks::cve_ids();
        std::vector<std::optional<jsk::defenses::defense_id>> defenses{std::nullopt};
        for (const auto id : jsk::defenses::all_defense_ids()) defenses.push_back(id);
        for (const std::uint64_t seed : k_browser_seeds) {
            jsk::attacks::cve_trial_spec base;
            base.browser_seed = seed;
            const auto snap =
                jsk::core::snapshot_world(jsk::attacks::cve_world_recipe(base));
            for (const auto& cve : ids) {
                for (const auto& def : defenses) {
                    for (const auto model : {jsk::wm::mode::seqcst, jsk::wm::mode::relaxed}) {
                        jsk::attacks::cve_trial_spec spec = base;
                        spec.cve = cve;
                        spec.defense = def;
                        spec.model = model;
                        std::set<std::string> seen;
                        for (std::uint64_t w = 0; w < k_walks_per_cell; ++w) {
                            jsk::attacks::cve_walk_spec ws;
                            ws.tail = jsk::sim::explore::controller::tail_policy::random;
                            ws.walk_seed = walks.next();
                            seen.insert(
                                jsk::attacks::run_cve_trial_forked(*snap, spec, ws).decisions);
                        }
                        for (const std::string& d : seen) {
                            jsk::par::witness_key k;
                            k.seed = seed;
                            k.decisions = d;
                            k.defense = def ? jsk::defenses::to_string(*def) : "plain";
                            k.program = cve + jsk::wm::program_tag(model);
                            universe_.push_back(std::move(k));
                        }
                    }
                }
            }
        }
        explore_count_ = universe_.size();
        seed_stream chaos(opt_.seed, k_salt + 1);
        for (std::size_t i = 0; i < chaos_witnesses(); ++i) universe_.push_back(chaos_key(chaos));
        universe_bytes_.clear();
        for (const auto& k : universe_) universe_bytes_.push_back(jsk::par::serialize(k));
    }

    /// A new chaos witness: a sampled fault plan against a CVE or a random
    /// program, plain or under JSKernel.
    struct chaos_draw {
        std::uint64_t plan;
        std::uint64_t program;
        bool kernel;
    };

    static chaos_draw draw_chaos(seed_stream& gen)
    {
        chaos_draw d{};
        d.plan = gen.next();
        d.program = gen.next();
        d.kernel = (gen.next() & 1) == 1;
        return d;
    }

    static std::string describe(const chaos_draw& d)
    {
        return std::to_string(d.plan) + (d.kernel ? " jskernel " : " plain ") +
               (d.program % 2 == 0 ? "cve " + std::to_string((d.program / 2) % 12)
                                   : "program:" + std::to_string(d.program % 100'000));
    }

    jsk::par::witness_key chaos_key(seed_stream& gen) const
    {
        const chaos_draw d = draw_chaos(gen);
        jsk::par::witness_key k;
        k.seed = k_chaos_seed;
        k.plan = jsk::faults::plan::sample(d.plan).str();
        k.defense = d.kernel ? "jskernel" : "plain";
        k.program = d.program % 2 == 0 ? cve_ids_[(d.program / 2) % cve_ids_.size()]
                                       : "program:" + std::to_string(d.program % 100'000);
        return k;
    }

    /// `n` distinct indices drawn from [first, last).
    std::vector<std::size_t> draw(std::size_t first, std::size_t last, std::size_t n)
    {
        std::vector<std::size_t> all;
        for (std::size_t i = first; i < last; ++i) all.push_back(i);
        if (n > all.size()) throw std::logic_error("svc-waves: witness universe too small");
        for (std::size_t i = 0; i < n; ++i) std::swap(all[i], all[i + mix_.below(all.size() - i)]);
        all.resize(n);
        return all;
    }

    void start_cycle()
    {
        const std::size_t per_cycle = k_cycle_waves * (wave_jobs_ / 8);
        fresh_explore_ = draw(0, explore_count_, per_cycle);
        fresh_chaos_ = draw(explore_count_, universe_.size(), per_cycle);
        std::set<std::string> fresh;
        for (const auto* pool : {&fresh_explore_, &fresh_chaos_}) {
            for (const std::size_t i : *pool) fresh.insert(universe_bytes_[i]);
        }
        svc_->cache().clear();
        svc_->disk()->evict_if([&](const std::string& kb) { return fresh.count(kb) != 0; });
        svc_->disk()->compact();
        disk_only_.clear();
        for (std::size_t i = 0; i < universe_.size(); ++i) {
            if (fresh.count(universe_bytes_[i]) == 0) disk_only_.push_back(i);
        }
        in_memory_.clear();
    }

    static std::size_t pop(std::vector<std::size_t>& pool)
    {
        const std::size_t v = pool.back();
        pool.pop_back();
        return v;
    }

    std::vector<std::size_t> compose_wave()
    {
        const bool cycle_start = waves_ % k_cycle_waves == 0;
        if (cycle_start) start_cycle();
        const std::size_t quarter = wave_jobs_ / 4;
        std::vector<std::size_t> jobs;
        for (std::size_t i = 0; i < 2 * quarter && !cycle_start; ++i) {
            jobs.push_back(in_memory_[mix_.below(in_memory_.size())]);
        }
        const std::size_t disk = cycle_start ? 3 * quarter : quarter;
        for (std::size_t i = 0; i < disk; ++i) {
            std::swap(disk_only_[mix_.below(disk_only_.size())], disk_only_.back());
            jobs.push_back(pop(disk_only_));
        }
        last_chaos_.clear();
        for (std::size_t i = 0; i < quarter / 2; ++i) {
            jobs.push_back(pop(fresh_explore_));
            jobs.push_back(pop(fresh_chaos_));
            last_chaos_.push_back(universe_[jobs.back()]);
        }
        // Everything but the memory hits is resident from now on.
        in_memory_.insert(in_memory_.end(),
                          jobs.end() - static_cast<std::ptrdiff_t>(disk + quarter), jobs.end());
        // Arrival order is shuffled; the service orders each wave itself.
        for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[mix_.below(i)]);
        return jobs;
    }

    /// One wave through serve(): timed as one piece when `cal` is set.
    op_result wave(calibrator* cal)
    {
        const std::vector<std::size_t> picks = compose_wave();
        ++waves_;
        op_result r;
        std::vector<jsk::par::witness_key> keys;
        keys.reserve(picks.size());
        for (const std::size_t i : picks) keys.push_back(universe_[i]);

        std::vector<svc::frame> frames;
        svc::wave_result stats;
        bool have_stats = false;
        const auto body = [&] {
            svc::mem_pipe in;
            svc::mem_pipe out;
            {
                const auto span = tr_.span("svc.client_encode");
                svc::write_frame(in, svc::frame_type::hello, svc::encode_hello(k_tenant));
                for (std::size_t i = 0; i < keys.size(); ++i) {
                    svc::write_frame(in, svc::frame_type::job,
                                     svc::encode_job({next_client_id_ + i, keys[i]}));
                }
                svc::write_frame(in, svc::frame_type::end_wave, {});
            }
            {
                const auto span = tr_.span("svc.serve");
                svc_->serve(in, out, [&](const svc::wave_result& w) {
                    stats.hits_mem = w.hits_mem;
                    stats.hits_disk = w.hits_disk;
                    stats.trials = w.trials;
                    have_stats = true;
                });
            }
            {
                const auto span = tr_.span("svc.client_decode");
                svc::frame f;
                while (svc::read_frame(out, f)) {
                    frames.push_back(std::move(f));
                    if (frames.back().type == svc::frame_type::wave_done) break;
                }
            }
        };
        if (cal != nullptr) {
            r.pieces.push_back(cal->piece(body));
        } else {
            body();
        }

        std::size_t results = 0;
        bool done = false;
        for (const svc::frame& f : frames) {
            if (f.type == svc::frame_type::error) {
                ++error_frames_;
                const auto e = svc::decode_reject(f.payload);
                fail(r, "error frame: " + (e ? e->message : std::string("undecodable")));
            } else if (f.type == svc::frame_type::result) {
                const auto res = svc::decode_result(f.payload);
                if (!res || res->client_id < next_client_id_ ||
                    res->client_id >= next_client_id_ + keys.size()) {
                    fail(r, "undecodable result frame");
                    continue;
                }
                ++results;
                if (res->result.hit_task_cap) fail(r, "a job hit the task cap");
                // The frame minus its seq and client id: a pure function of the witness.
                const std::string body_bytes = f.payload.substr(16);
                const std::string& kb = universe_bytes_[picks[res->client_id - next_client_id_]];
                const auto [it, inserted] = first_result_.emplace(kb, body_bytes);
                if (!inserted && it->second != body_bytes) {
                    fail(r, "a repeated witness's result frame changed");
                }
            } else if (f.type == svc::frame_type::wave_done) {
                done = true;
            }
        }
        if (!done || results != keys.size()) {
            fail(r, "wave returned " + std::to_string(results) + "/" +
                        std::to_string(keys.size()) + " results");
        }
        next_client_id_ += keys.size();
        if (have_stats && cal != nullptr) {
            trials_ += stats.trials;
            hits_mem_ += stats.hits_mem;
            hits_disk_ += stats.hits_disk;
            jobs_ += keys.size();
        }
        cache_bytes_ = std::max<std::uint64_t>(cache_bytes_, svc_->cache().bytes());
        r.work = static_cast<double>(results);
        return r;
    }

    static void fail(op_result& r, const std::string& why)
    {
        if (r.ok) r.error = why;
        r.ok = false;
    }

    const run_options& opt_;
    tracer& tr_;
    std::size_t wave_jobs_;
    std::string root_;
    std::string store_dir_;
    int setups_ = 0;
    std::vector<std::string> cve_ids_;
    std::unique_ptr<svc::service> svc_;
    seed_stream mix_{0, 0};
    std::vector<jsk::par::witness_key> universe_;  // explore replays, then chaos witnesses
    std::vector<std::string> universe_bytes_;      // their serialized keys
    std::size_t explore_count_ = 0;
    std::vector<std::size_t> fresh_explore_;  // this cycle's new witnesses, by index
    std::vector<std::size_t> fresh_chaos_;
    std::vector<std::size_t> disk_only_;      // stored, not yet recalled this cycle
    std::vector<std::size_t> in_memory_;      // resolved this cycle
    std::vector<jsk::par::witness_key> last_chaos_;
    std::map<std::string, std::string> first_result_;
    std::uint64_t next_client_id_ = 1;
    std::uint64_t waves_ = 0;
    std::uint64_t timed_waves_ = 0;
    std::uint64_t trials_ = 0;
    std::uint64_t hits_mem_ = 0;
    std::uint64_t hits_disk_ = 0;
    std::uint64_t jobs_ = 0;
    std::uint64_t error_frames_ = 0;
    std::uint64_t cache_bytes_ = 0;
    svc::store_stats warm_store_;
};

}  // namespace

std::unique_ptr<workload> make_svc_waves(const run_options& opt, tracer& tr)
{
    return std::make_unique<svc_waves>(opt, tr);
}

}  // namespace perfbench
