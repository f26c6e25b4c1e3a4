// jsk::svc — the sweep service: long-lived, multi-tenant, cache-backed.
//
// jsk::par runs one batch and exits; `service` wraps the same machinery in
// a process that stays up: tenants connect, stream (program, plan,
// decisions, defense, seed) work units, and flush *waves* — each wave is
// canonically ordered (sorted by serialized witness key, ties by client
// id), resolved against the in-memory witness cache and then the disk
// store, and only the genuinely new work is simulated, on the shared
// jsk::par worker pool with snapshot-served worlds. Results stream back in
// canonical order with the wave's merged matrix JSON.
//
// The determinism contract survives end to end: a job's outcome is a pure
// function of its witness key (that is what makes caching sound), and the
// canonical wave order erases arrival order, worker count and cache state
// from every response byte — the same job set yields byte-identical result
// streams and merged JSON whether it arrived shuffled, sorted, duplicated
// across a warm cache, or sharded over 1 or 8 workers.
//
// Accounting is per tenant (obs::tenant_set): jobs, mem/disk cache hits,
// trials simulated, bytes served, wave counts, trials/sec — folded into a
// service-wide snapshot on demand. Workers can be added or removed between
// waves (resize()), which re-shards the pool and drops the per-worker
// snapshot caches (worlds are thread-confined; new threads rebuild their
// own).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/chaos_sweep.h"
#include "obs/tenants.h"
#include "par/cache.h"
#include "par/pool.h"
#include "par/worker_local.h"
#include "svc/intent.h"
#include "svc/record.h"
#include "svc/store.h"
#include "svc/vfs.h"
#include "svc/wire.h"

namespace jsk::core {
class snapshot_cache;
}

namespace jsk::svc {

struct service_options {
    /// Persistence root; "" = in-memory only (no store).
    std::string store_dir;
    std::size_t store_shards = 8;
    /// Worker-pool size; 0 = par::default_jobs(), 1 = thread-free serial.
    std::size_t jobs = 1;
    /// Serve trials from per-worker world snapshots where the platform
    /// allows; byte-identical output either way (throughput knob only).
    bool snapshots = true;
    /// Chaos-path trial knobs (jobs whose plan is non-empty).
    attacks::chaos_options chaos;
    /// File-operation seam for the store, intent log, and every other
    /// durable byte; nullptr = the passthrough default_vfs(). Not owned.
    vfs* fs = nullptr;
    /// Forwarded to store_options::fsync: whether the per-wave ack barrier
    /// reaches the platter or stops at the OS.
    bool fsync = true;
};

/// One buffered work unit: the client's correlation id plus the witness.
struct job {
    std::uint64_t client_id = 0;
    par::witness_key key;
};

struct wave_result {
    std::vector<job> jobs;            // canonical order
    std::vector<job_result> results;  // results[i] belongs to jobs[i]
    std::string merged_json;          // canonical aggregate (kernel::json dump)
    std::uint64_t hits_mem = 0;       // served from the in-memory cache
    std::uint64_t hits_disk = 0;      // recalled from the store
    std::uint64_t trials = 0;         // simulated fresh this wave
};

class service {
public:
    explicit service(service_options opt);
    ~service();

    service(const service&) = delete;
    service& operator=(const service&) = delete;

    /// One tenant's connection: buffer jobs, flush waves.
    class session {
    public:
        /// Validate and buffer. Throws std::invalid_argument (unknown
        /// program/defense, malformed plan/decisions, decisions on a chaos
        /// job) — the wire loop turns that into an error frame.
        void submit(job j);

        /// Run the buffered wave; clears the buffer.
        wave_result flush();

        [[nodiscard]] const std::string& tenant() const { return tenant_; }
        [[nodiscard]] std::size_t pending() const { return pending_.size(); }

    private:
        friend class service;
        session(service& svc, std::string tenant)
            : svc_(&svc), tenant_(std::move(tenant))
        {
        }

        service* svc_;
        std::string tenant_;
        std::vector<job> pending_;
    };

    /// The tenant's session, created on first connect.
    session& connect(const std::string& tenant_id);

    /// Re-shard the worker pool between waves (0 = par::default_jobs()).
    void resize(std::size_t jobs);
    [[nodiscard]] std::size_t jobs() const;

    /// Drive a full framed conversation (svc/wire.h): hello picks the
    /// tenant, job frames buffer, end_wave flushes — results + wave_done
    /// stream back; invalid jobs and malformed frame payloads produce error
    /// frames (seq 0: advisory, outside the replayable stream) without
    /// killing the stream. A trailing unflushed wave is flushed at EOF.
    ///
    /// Durable commit per wave: the wave's intent (tenant + full job list +
    /// first response seq) is journaled and fsync'd, then the wave resolves
    /// and the store sync()s, and only then do the seq-numbered response
    /// frames go out — a result frame is an acknowledgement that survives
    /// any crash. The intent commits once the frames are flushed.
    ///
    /// Resumable clients send hello with the capability flag and receive a
    /// session frame {epoch, next seq}; after a torn connection they send
    /// resume {tenant, epoch, last_seq}, and the service replays the
    /// pending journaled wave's frames with their original seqs, skipping
    /// everything at or below last_seq. A resume with no matching pending
    /// wave (wrong tenant, wrong epoch, nothing journaled) is answered
    /// with an error frame whose message is exactly "nothing to resume" —
    /// the client's cue to clear its accumulator and resubmit from scratch.
    ///
    /// Returns the number of waves served; `on_wave` (when set) observes
    /// each wave_result as it completes.
    std::size_t serve(byte_source& in, byte_sink& out,
                      const std::function<void(const wave_result&)>& on_wave = {});

    [[nodiscard]] par::result_cache<job_result>& cache() { return cache_; }
    /// nullptr when the service is memory-only.
    [[nodiscard]] store* disk() { return store_.get(); }
    /// nullptr when the service is memory-only (no durable state to
    /// journal, so nothing is resumable either).
    [[nodiscard]] intent_log* intent() { return intent_.get(); }
    /// This incarnation's session epoch (0 when memory-only): bumped every
    /// time the service reopens its durable state, which is what lets a
    /// resume name the incarnation its last_seq was counted against.
    [[nodiscard]] std::uint64_t epoch() const
    {
        return intent_ != nullptr ? intent_->epoch() : 0;
    }
    [[nodiscard]] obs::tenant_set& tenants() { return tenants_; }

    /// Service-wide stats: per-tenant + folded metrics, cache counters,
    /// store stats. Diagnostics — includes wall-clock-derived gauges, so
    /// not part of any byte-compared oracle.
    [[nodiscard]] std::string snapshot_json() const;

    /// The canonical aggregate of a resolved wave — one row per job in
    /// canonical order. Pure function of (jobs, results).
    static std::string merged_json(const std::vector<job>& jobs,
                                   const std::vector<job_result>& results);

private:
    struct worker_state;  // per-worker snapshot caches (thread-confined)

    wave_result run_wave(session& sess);
    job_result execute(const par::witness_key& key, std::size_t worker_id);
    /// nullopt when valid; otherwise the rejection message.
    [[nodiscard]] std::optional<std::string> validate(const par::witness_key& key) const;

    service_options opt_;
    std::unique_ptr<store> store_;
    std::unique_ptr<intent_log> intent_;
    par::result_cache<job_result> cache_;
    obs::tenant_set tenants_;
    std::unique_ptr<par::worker_pool> pool_;
    std::unique_ptr<par::worker_local<worker_state>> workers_;
    std::map<std::string, std::unique_ptr<session>> sessions_;
    std::vector<std::string> known_programs_;
    std::uint64_t waves_ = 0;
};

}  // namespace jsk::svc
