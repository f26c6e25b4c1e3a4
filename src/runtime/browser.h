// The simulated browser: owns the simulation, the main context, workers,
// network, DOM, renderer, storage and the runtime event bus.
//
// Defense hooks live here when they are browser-global (task-delay fuzzing,
// error-message sanitisation, polyfill-worker mode); everything API-shaped is
// interposed per-context through the api_table instead.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/context.h"
#include "runtime/dom.h"
#include "runtime/events.h"
#include "runtime/network.h"
#include "runtime/profile.h"
#include "runtime/rendering.h"
#include "runtime/storage.h"
#include "runtime/vuln.h"
#include "runtime/worker.h"
#include "sim/por.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "wm/memory.h"

namespace jsk::faults {
class injector;
}

namespace jsk::rt {

/// Engine-bug switches: a "legacy" engine ships all of them; individual tests
/// can patch single bugs off. These are the substrate the CVE trigger state
/// machines observe — a defense that works must win *with the bugs present*.
struct engine_bugs {
    bool idb_private_mode_persists = true;     // CVE-2017-7843
    bool worker_xhr_ignores_sop = true;        // CVE-2013-1714
    bool leaky_worker_error_messages = true;   // CVE-2014-1487
    bool leaky_import_scripts_errors = true;   // CVE-2015-7215
    bool cross_origin_import_exposes_source = true;  // CVE-2011-1190 (modelled)
};

class browser {
public:
    explicit browser(browser_profile profile, std::uint64_t seed = 0x6a736bULL);
    ~browser();

    browser(const browser&) = delete;
    browser& operator=(const browser&) = delete;

    // --- subsystems ---
    [[nodiscard]] sim::simulation& sim() { return sim_; }
    [[nodiscard]] const browser_profile& profile() const { return profile_; }
    [[nodiscard]] sim::rng& random() { return rng_; }
    [[nodiscard]] event_bus& bus() { return bus_; }
    [[nodiscard]] network& net() { return net_; }
    [[nodiscard]] document& doc() { return doc_; }
    [[nodiscard]] renderer& painter() { return *renderer_; }
    [[nodiscard]] indexed_db& idb() { return idb_; }
    [[nodiscard]] history_store& history() { return history_; }
    [[nodiscard]] context& main() { return *main_; }
    [[nodiscard]] engine_bugs& bugs() { return bugs_; }

    // --- page state ---
    [[nodiscard]] const std::string& page_origin() const { return page_origin_; }
    void set_page_origin(std::string origin) { page_origin_ = std::move(origin); }
    [[nodiscard]] bool private_browsing() const { return private_browsing_; }
    void set_private_browsing(bool on) { private_browsing_ = on; }

    /// Leave private browsing; with the engine bug present, private-mode
    /// indexedDB records survive and the corresponding event is emitted.
    void end_private_session();

    /// Reload the page: emits page_reload and (like a real teardown) fires
    /// the abort signal of every in-flight fetch.
    void reload_page();

    // --- worker machinery ---
    using worker_script = std::function<void(context&)>;
    void register_worker_script(std::string src, worker_script body);
    [[nodiscard]] const worker_script* find_worker_script(const std::string& src) const;

    /// Native `new Worker(src)` path.
    worker_ptr spawn_worker(context& parent, const std::string& src);
    void terminate_worker(worker_link& link);
    void worker_self_close(context& worker_ctx);
    void post_to_child(worker_link& link, js_value data, transfer_list transfer);
    void post_to_parent(context& child, js_value data, transfer_list transfer);
    void fire_worker_error(worker_link& link, const std::string& raw_message,
                           bool leaks_cross_origin);
    [[nodiscard]] const std::vector<std::shared_ptr<worker_link>>& links() const
    {
        return links_;
    }

    /// Messages posted but not yet delivered (CVE-2013-6646's reload race).
    [[nodiscard]] std::int64_t messages_in_flight() const { return messages_in_flight_; }

    // --- fetch/abort plumbing ---
    void abort_fetches_with(const abort_signal& signal);
    void abort_all_inflight_fetches();

    /// Model computation cost, but only when a task is on the stack (harness
    /// code frequently drives natives from outside the simulation).
    void charge(sim::time_ns cost)
    {
        if (sim_.in_task() && cost > 0) sim_.consume(cost);
    }

    // --- defense hooks ---
    /// Adjust the delay of every macrotask posted on any context (Fuzzyfox's
    /// pause-task injection). Receives the requested delay and the label.
    using task_delay_hook =
        std::function<sim::time_ns(sim::time_ns delay, const std::string& label)>;
    void set_task_delay_hook(task_delay_hook hook) { delay_hook_ = std::move(hook); }
    [[nodiscard]] const task_delay_hook& task_delay_hook_fn() const { return delay_hook_; }

    /// Sanitize error strings before they reach page handlers (how the
    /// JSKernel extension scrubs cross-origin info from onerror /
    /// importScripts exceptions). Returns the replacement message; setting it
    /// also suppresses the leak flag on emitted events.
    using error_sanitizer = std::function<std::string(const std::string& raw)>;
    void set_error_sanitizer(error_sanitizer fn) { sanitizer_ = std::move(fn); }

    /// Chrome Zero mode: workers are polyfilled onto the main thread with a
    /// JS-level implementation — no engine-level worker objects exist.
    void set_polyfill_workers(bool on) { polyfill_workers_ = on; }
    [[nodiscard]] bool polyfill_workers() const { return polyfill_workers_; }

    // --- fault injection (jsk::faults) ---
    /// Attach a deterministic fault injector (not owned; nullptr detaches).
    /// Interposition sites consult it through active_faults(), which is
    /// nullptr whenever no injector is attached *or* its plan is null — the
    /// fault-free path costs one branch (same pattern as the obs null-sink
    /// guard, pinned by tests/perf/test_overhead_guards.cpp).
    void set_fault_injector(faults::injector* injector) { faults_ = injector; }
    [[nodiscard]] faults::injector* fault_injector() const { return faults_; }
    [[nodiscard]] faults::injector* active_faults() const;

    // --- context management ---
    context& create_context(std::string name, context_kind kind,
                            sim::thread_id reuse_thread = sim::no_thread);

    // --- run helpers ---
    void run(std::uint64_t max_tasks = 50'000'000) { sim_.run(max_tasks); }
    void run_until(sim::time_ns t, std::uint64_t max_tasks = 50'000'000)
    {
        sim_.run_until(t, max_tasks);
    }

    void emit(rt_event event)
    {
        event.at = sim_.now();
        // Every event is a write into the state machine of each monitor
        // watching its kind: announce those sink touches to the schedule
        // explorer *before* the bus fans out, so two tasks feeding the same
        // CVE monitor are never judged independent (DESIGN.md §12). No-op
        // (one branch per watcher bit) outside controlled exploration.
        for (std::uint32_t sinks = monitor_watch_mask(event.kind); sinks != 0;
             sinks &= sinks - 1) {
            sim_.note_access(sim::por::sink_key(
                                 static_cast<std::size_t>(std::countr_zero(sinks))),
                             /*write=*/true);
        }
        bus_.emit(event);
    }

    /// World-unique id for a SharedArrayBuffer: keys its slots in the
    /// explorer's SAB access namespace (por::sab_key).
    [[nodiscard]] std::uint64_t take_sab_id() { return next_sab_id_++; }

    // --- weak memory (jsk::wm) ---
    /// Switch the SAB memory model. `seqcst` (default) is the historical
    /// strongly-consistent behaviour; `relaxed` activates the candidate-
    /// execution enumerator — unordered reads may return any reads-from
    /// choice the repaired ECMAScript model allows, steered through the
    /// explorer's decision string. Switching resets recorded events, so set
    /// it before (or right after attaching a controller to) a trial; like a
    /// defense install it is per-world state, never part of a snapshot
    /// recipe.
    void set_memory_model(wm::mode m)
    {
        wmem_.set_mode(m);
        sim_.set_wm_listener(m == wm::mode::relaxed ? &wmem_ : nullptr);
    }
    [[nodiscard]] wm::mode memory_model() const { return wmem_.model(); }
    [[nodiscard]] wm::memory& wmem() { return wmem_; }

private:
    void import_worker_script(const std::shared_ptr<worker_link>& link);
    void terminate_worker_now(worker_link& link);
    void crash_worker(worker_link& link);
    void fail_worker_spawn(const std::shared_ptr<worker_link>& link);

    browser_profile profile_;
    sim::simulation sim_;
    sim::rng rng_;
    event_bus bus_;
    network net_;
    document doc_;
    indexed_db idb_;
    history_store history_;
    engine_bugs bugs_;

    std::string page_origin_ = "https://attacker.example";
    bool private_browsing_ = false;

    std::vector<std::unique_ptr<context>> contexts_;
    context* main_ = nullptr;
    std::unique_ptr<renderer> renderer_;

    std::unordered_map<std::string, worker_script> scripts_;
    std::vector<std::shared_ptr<worker_link>> links_;
    std::uint64_t next_worker_id_ = 1;
    std::uint64_t next_sab_id_ = 1;
    std::int64_t messages_in_flight_ = 0;

    task_delay_hook delay_hook_;
    error_sanitizer sanitizer_;
    bool polyfill_workers_ = false;
    faults::injector* faults_ = nullptr;
    wm::memory wmem_;  // by value: fork rollback restores the model's events
};

}  // namespace jsk::rt
