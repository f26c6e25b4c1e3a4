#include "faults/injector.h"

#include <algorithm>

#include "sim/hash.h"

namespace jsk::faults {
namespace {

using sim::mix64;

constexpr std::uint32_t tag_fetch = 0xF37C0001u;
constexpr std::uint32_t tag_spawn = 0xF37C0002u;
constexpr std::uint32_t tag_crash = 0xF37C0003u;
constexpr std::uint32_t tag_msg = 0xF37C0004u;
constexpr std::uint32_t tag_clock = 0xF37C0005u;

}  // namespace

std::uint32_t injector::roll(std::uint32_t tag, std::uint64_t seq, std::uint32_t salt) const
{
    const std::uint64_t key =
        plan_.seed ^ (static_cast<std::uint64_t>(tag) << 32) ^ (seq * 0x10001ULL) ^ salt;
    return static_cast<std::uint32_t>(mix64(key) % 10'000u);
}

injector::fetch_decision injector::on_fetch(sim::time_ns base_latency)
{
    const std::uint64_t seq = fetch_seq_++;
    ++decisions_;
    fetch_decision d;
    if (roll(tag_fetch, seq, 1) < plan_.fetch_timeout_bp) {
        d.kind = fetch_fault::timeout;
        d.fail_after = plan_.fetch_timeout_after;
        ++fetch_timeouts_;
    } else if (roll(tag_fetch, seq, 2) < plan_.fetch_reset_bp) {
        d.kind = fetch_fault::reset;
        d.fail_after = std::max<sim::time_ns>(base_latency / 2, 1);
        ++fetch_resets_;
    } else if (roll(tag_fetch, seq, 3) < plan_.fetch_partial_bp) {
        d.kind = fetch_fault::partial;
        ++fetch_partials_;
    } else if (roll(tag_fetch, seq, 4) < plan_.fetch_spike_bp) {
        d.kind = fetch_fault::spike;
        d.extra_latency = plan_.fetch_spike;
        ++fetch_spikes_;
    }
    if (d.kind != fetch_fault::none) ++injected_;
    return d;
}

bool injector::on_worker_spawn()
{
    const std::uint64_t seq = spawn_seq_++;
    ++decisions_;
    if (roll(tag_spawn, seq, 1) < plan_.worker_spawn_fail_bp) {
        ++worker_spawn_fails_;
        ++injected_;
        return true;
    }
    return false;
}

sim::time_ns injector::worker_crash_delay()
{
    const std::uint64_t seq = crash_seq_++;
    ++decisions_;
    if (roll(tag_crash, seq, 1) < plan_.worker_crash_bp) {
        ++worker_crashes_;
        ++injected_;
        // Stagger crashes across the decision stream so two doomed workers
        // do not die in lockstep.
        const sim::time_ns jitter = static_cast<sim::time_ns>(roll(tag_crash, seq, 2)) *
                                    (plan_.worker_crash_after / 10'000 + 1);
        return plan_.worker_crash_after + jitter;
    }
    return 0;
}

injector::msg_decision injector::on_message()
{
    const std::uint64_t seq = msg_seq_++;
    ++decisions_;
    msg_decision d;
    if (roll(tag_msg, seq, 1) < plan_.msg_drop_bp) {
        d.kind = msg_fault::drop;
        ++msg_drops_;
    } else if (roll(tag_msg, seq, 2) < plan_.msg_duplicate_bp) {
        d.kind = msg_fault::duplicate;
        ++msg_duplicates_;
    } else if (roll(tag_msg, seq, 3) < plan_.msg_delay_bp) {
        d.kind = msg_fault::delay;
        d.delay = plan_.msg_delay;
        ++msg_delays_;
    }
    if (d.kind != msg_fault::none) ++injected_;
    return d;
}

sim::time_ns injector::clock_skew(sim::time_ns t) const
{
    if (plan_.clock_skew_amplitude <= 0 || t < 0) return 0;
    const sim::time_ns period = std::max<sim::time_ns>(plan_.clock_skew_period, 1);
    // |offset| <= period/2 bounds the interpolated slope below by -1, so the
    // skewed clock t + skew(t) is non-decreasing.
    const sim::time_ns amp = std::min(plan_.clock_skew_amplitude, period / 2);
    if (amp <= 0) return 0;
    const std::uint64_t seg = static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(period);
    const auto offset = [&](std::uint64_t k) -> sim::time_ns {
        const std::uint64_t h =
            mix64(plan_.seed ^ (static_cast<std::uint64_t>(tag_clock) << 32) ^ k);
        const std::uint64_t span = 2 * static_cast<std::uint64_t>(amp) + 1;
        return static_cast<sim::time_ns>(h % span) - amp;
    };
    const sim::time_ns a = offset(seg);
    const sim::time_ns b = offset(seg + 1);
    const sim::time_ns into = t - static_cast<sim::time_ns>(seg) * period;
    return a + (b - a) * into / period;
}

}  // namespace jsk::faults
