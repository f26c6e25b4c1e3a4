// jsk::obs — the unified observability subsystem: trace sink.
//
// The kernel's claim is that determinism comes from routing all platform
// behaviour through one place; this sink is the window into what that place
// actually did. Components emit typed span ('X') and instant ('i') events —
// task begin/end, kernel register/confirm/cancel/dispatch, timer fires,
// postMessage send/recv, fetch issue/complete, policy decisions, explore
// branch points — stamped exclusively with *virtual* time (sim nanoseconds),
// never a physical clock. Recording is therefore deterministic: two
// same-seed runs emit byte-identical event streams, which makes an exported
// trace a determinism oracle alongside the kernel journal (see
// tests/obs/test_trace_determinism.cpp).
//
// Cost model: every instrumentation point is guarded by a null-pointer check
// on the attached sink, with all argument construction behind the branch, so
// an un-traced run pays one predictable branch per site (the obs-off guard in
// tests/perf/test_overhead_guards.cpp pins this). The sink itself is
// header-only so the instrumented libraries (sim, kernel, runtime) never link
// against jsk_obs — only consumers of the export/metrics layers do.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace jsk::obs {

/// Event taxonomy. Rendered as the Chrome trace-event `cat` field, so
/// Perfetto can filter per subsystem.
enum class category : std::uint8_t {
    task,     // simulator task spans (the event-loop occupancy timeline)
    kernel,   // scheduler register/confirm/cancel + dispatcher spans
    timer,    // native timer fires
    message,  // postMessage send/recv
    fetch,    // network issue/complete/abort (+ xhr)
    worker,   // worker lifecycle
    storage,  // indexedDB access
    page,     // page-level events (reload)
    policy,   // kernel policy decisions
    attack,   // CVE monitor triggers
    explore,  // schedule-exploration branch points
    fault,    // injected faults + kernel recovery (watchdog, retries)
};

inline const char* to_string(category c)
{
    switch (c) {
        case category::task: return "task";
        case category::kernel: return "kernel";
        case category::timer: return "timer";
        case category::message: return "message";
        case category::fetch: return "fetch";
        case category::worker: return "worker";
        case category::storage: return "storage";
        case category::page: return "page";
        case category::policy: return "policy";
        case category::attack: return "attack";
        case category::explore: return "explore";
        case category::fault: return "fault";
    }
    return "?";
}

/// One typed argument. Values stay typed until export (rendering happens
/// only in chrome_export).
struct arg {
    enum class kind : std::uint8_t { i64, f64, text };

    const char* key = "";  // static-duration string at every call site
    kind k = kind::i64;
    std::int64_t i = 0;
    double d = 0;
    std::string s;
};

template <typename T>
    requires std::is_integral_v<T>
arg num(const char* key, T value)
{
    return arg{key, arg::kind::i64, static_cast<std::int64_t>(value), 0, {}};
}

inline arg num(const char* key, double value)
{
    return arg{key, arg::kind::f64, 0, value, {}};
}

inline arg text(const char* key, std::string value)
{
    return arg{key, arg::kind::text, 0, 0, std::move(value)};
}

/// One recorded event. `ph` follows the Chrome trace-event phase letters:
/// 'X' complete span (ts + dur), 'i' instant.
struct trace_event {
    category cat = category::task;
    char ph = 'i';
    std::int32_t tid = 0;
    sim::time_ns ts = 0;
    sim::time_ns dur = 0;  // 'X' only
    std::string name;
    std::vector<arg> args;
};

/// Append-only event store. Attach to a world with
/// `simulation::set_trace_sink(&sink)` (kernel and runtime instrumentation
/// read the sink through their simulation); emission order is the
/// deterministic execution order of the run.
class sink {
public:
    void complete(category cat, std::int32_t tid, sim::time_ns ts, sim::time_ns dur,
                  std::string name, std::vector<arg> args = {})
    {
        events_.push_back(trace_event{cat, 'X', tid, ts, dur < 0 ? 0 : dur,
                                      std::move(name), std::move(args)});
    }

    void instant(category cat, std::int32_t tid, sim::time_ns ts, std::string name,
                 std::vector<arg> args = {})
    {
        events_.push_back(trace_event{cat, 'i', tid, ts, 0, std::move(name),
                                      std::move(args)});
    }

    /// Register (or rename) a thread for the export's metadata events.
    void set_thread_name(std::int32_t tid, std::string name)
    {
        for (auto& [id, existing] : thread_names_) {
            if (id == tid) {
                existing = std::move(name);
                return;
            }
        }
        thread_names_.emplace_back(tid, std::move(name));
    }

    /// Append every event (and any new thread names) from a per-shard sink.
    /// Sinks are single-world objects — parallel sweeps give each job its
    /// own sink and fold them in canonical job order after the join, so the
    /// merged stream is deterministic and never interleaves mid-run.
    /// Existing thread names win on tid collisions (shards of one sweep name
    /// their threads identically anyway).
    void append(const sink& other)
    {
        events_.insert(events_.end(), other.events_.begin(), other.events_.end());
        for (const auto& [tid, name] : other.thread_names_) {
            bool known = false;
            for (const auto& [existing_tid, existing] : thread_names_) {
                if (existing_tid == tid) {
                    known = true;
                    break;
                }
            }
            if (!known) thread_names_.emplace_back(tid, name);
        }
    }

    [[nodiscard]] const std::vector<trace_event>& events() const { return events_; }
    [[nodiscard]] const std::vector<std::pair<std::int32_t, std::string>>&
    thread_names() const
    {
        return thread_names_;
    }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    [[nodiscard]] bool empty() const { return events_.empty(); }

    void clear()
    {
        events_.clear();
        thread_names_.clear();
    }

private:
    std::vector<trace_event> events_;
    std::vector<std::pair<std::int32_t, std::string>> thread_names_;
};

/// First argument with `key`, or nullptr (trace-consumer queries).
inline const arg* find_arg(const trace_event& ev, const char* key)
{
    for (const arg& a : ev.args) {
        if (std::string_view(a.key) == key) return &a;
    }
    return nullptr;
}

}  // namespace jsk::obs
