// jsk::faults — the deterministic fault oracle.
//
// The injector answers "does this interposition point fault, and how?" for
// every site the runtime exposes (fetch issue, worker spawn/terminate,
// postMessage, performance.now). Every answer is a pure function of
// (plan.seed, site tag, per-site sequence number): there is no shared RNG
// whose state could be perturbed by unrelated sites, so a run that issues
// the same calls in the same per-site order gets the same faults — which is
// exactly what schedule record/replay guarantees. (seed, plan, decision
// string) therefore reproduces a chaotic run byte-for-byte.
#pragma once

#include <cstdint>
#include <string>

#include "faults/plan.h"
#include "sim/time.h"

namespace jsk::faults {

class injector {
public:
    explicit injector(plan p) : plan_(p), enabled_(!plan_.null_plan()) {}

    [[nodiscard]] const plan& spec() const { return plan_; }

    /// Null-plan fast path: when false, no site consults the injector at all
    /// (browser::active_faults() returns nullptr), so the fault-free path
    /// costs one branch — the same discipline as the obs null-sink guard,
    /// and pinned by tests/perf/test_overhead_guards.cpp.
    [[nodiscard]] bool enabled() const { return enabled_; }

    // --- network -----------------------------------------------------------
    enum class fetch_fault : std::uint8_t { none, timeout, reset, partial, spike };
    struct fetch_decision {
        fetch_fault kind = fetch_fault::none;
        sim::time_ns extra_latency = 0;  // spike only
        sim::time_ns fail_after = 0;     // timeout/reset: when the failure lands
    };
    /// Consulted once per fetch issue, with the latency the network model
    /// computed (resets fail at half of it).
    fetch_decision on_fetch(sim::time_ns base_latency);

    // --- workers -----------------------------------------------------------
    /// True: the spawn fails (script never runs); decided at spawn time.
    [[nodiscard]] bool on_worker_spawn();
    /// >0: the worker's engine crashes that long after spawn; decided at
    /// spawn time so the crash task can be scheduled deterministically.
    [[nodiscard]] sim::time_ns worker_crash_delay();
    /// Extra virtual time between terminate() and the engine-side teardown.
    [[nodiscard]] sim::time_ns termination_delay() const
    {
        return plan_.worker_termination_delay;
    }

    // --- channels ----------------------------------------------------------
    enum class msg_fault : std::uint8_t { none, drop, duplicate, delay };
    struct msg_decision {
        msg_fault kind = msg_fault::none;
        sim::time_ns delay = 0;
    };
    /// Consulted once per postMessage (either direction). The browser keeps
    /// per-direction delivery floors so whatever this returns stays within
    /// FIFO-realizable bounds.
    msg_decision on_message();

    // --- clocks ------------------------------------------------------------
    /// Skew added to a performance.now reading at virtual time `t`. Pure in
    /// (seed, t); piecewise-linear between hashed per-period offsets with
    /// amplitude clamped to period/2, so t + skew(t) is monotone — a skewed
    /// clock never runs backwards.
    [[nodiscard]] sim::time_ns clock_skew(sim::time_ns t) const;

    // --- telemetry (read by obs::collect_faults) ---------------------------
    [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
    [[nodiscard]] std::uint64_t injected() const { return injected_; }
    [[nodiscard]] std::uint64_t fetch_timeouts() const { return fetch_timeouts_; }
    [[nodiscard]] std::uint64_t fetch_resets() const { return fetch_resets_; }
    [[nodiscard]] std::uint64_t fetch_partials() const { return fetch_partials_; }
    [[nodiscard]] std::uint64_t fetch_spikes() const { return fetch_spikes_; }
    [[nodiscard]] std::uint64_t worker_spawn_fails() const { return worker_spawn_fails_; }
    [[nodiscard]] std::uint64_t worker_crashes() const { return worker_crashes_; }
    [[nodiscard]] std::uint64_t msg_drops() const { return msg_drops_; }
    [[nodiscard]] std::uint64_t msg_duplicates() const { return msg_duplicates_; }
    [[nodiscard]] std::uint64_t msg_delays() const { return msg_delays_; }

private:
    /// Uniform roll in [0, 10'000) for (site tag, sequence, salt).
    [[nodiscard]] std::uint32_t roll(std::uint32_t tag, std::uint64_t seq,
                                     std::uint32_t salt) const;

    plan plan_;
    bool enabled_;

    // Per-site sequence counters — each site consumes its own stream.
    std::uint64_t fetch_seq_ = 0;
    std::uint64_t spawn_seq_ = 0;
    std::uint64_t crash_seq_ = 0;
    std::uint64_t msg_seq_ = 0;

    std::uint64_t decisions_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t fetch_timeouts_ = 0;
    std::uint64_t fetch_resets_ = 0;
    std::uint64_t fetch_partials_ = 0;
    std::uint64_t fetch_spikes_ = 0;
    std::uint64_t worker_spawn_fails_ = 0;
    std::uint64_t worker_crashes_ = 0;
    std::uint64_t msg_drops_ = 0;
    std::uint64_t msg_duplicates_ = 0;
    std::uint64_t msg_delays_ = 0;
};

}  // namespace jsk::faults
