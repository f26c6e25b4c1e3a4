#include "faults/plan.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/hash.h"

namespace jsk::faults {
namespace {

using sim::mix64;

// The codec is a flat key=value list; this table is the single source of
// truth for field order and names, shared by str() and parse().
struct field_ref {
    const char* key;
    std::int64_t (*get)(const plan&);
    void (*set)(plan&, std::int64_t);
};

template <typename T, T plan::* M>
field_ref make_field(const char* key)
{
    return field_ref{
        key,
        [](const plan& p) { return static_cast<std::int64_t>(p.*M); },
        [](plan& p, std::int64_t v) { p.*M = static_cast<T>(v); },
    };
}

const std::vector<field_ref>& fields()
{
    static const std::vector<field_ref> f = {
        make_field<std::uint64_t, &plan::seed>("seed"),
        make_field<std::uint32_t, &plan::fetch_timeout_bp>("fetch_timeout_bp"),
        make_field<std::uint32_t, &plan::fetch_reset_bp>("fetch_reset_bp"),
        make_field<std::uint32_t, &plan::fetch_partial_bp>("fetch_partial_bp"),
        make_field<std::uint32_t, &plan::fetch_spike_bp>("fetch_spike_bp"),
        make_field<sim::time_ns, &plan::fetch_timeout_after>("fetch_timeout_after"),
        make_field<sim::time_ns, &plan::fetch_spike>("fetch_spike"),
        make_field<std::uint32_t, &plan::worker_spawn_fail_bp>("worker_spawn_fail_bp"),
        make_field<std::uint32_t, &plan::worker_crash_bp>("worker_crash_bp"),
        make_field<sim::time_ns, &plan::worker_crash_after>("worker_crash_after"),
        make_field<sim::time_ns, &plan::worker_termination_delay>("worker_termination_delay"),
        make_field<std::uint32_t, &plan::msg_drop_bp>("msg_drop_bp"),
        make_field<std::uint32_t, &plan::msg_duplicate_bp>("msg_duplicate_bp"),
        make_field<std::uint32_t, &plan::msg_delay_bp>("msg_delay_bp"),
        make_field<sim::time_ns, &plan::msg_delay>("msg_delay"),
        make_field<sim::time_ns, &plan::clock_skew_amplitude>("clock_skew_amplitude"),
        make_field<sim::time_ns, &plan::clock_skew_period>("clock_skew_period"),
    };
    return f;
}

}  // namespace

bool plan::null_plan() const
{
    return fetch_timeout_bp == 0 && fetch_reset_bp == 0 && fetch_partial_bp == 0 &&
           fetch_spike_bp == 0 && worker_spawn_fail_bp == 0 && worker_crash_bp == 0 &&
           worker_termination_delay == 0 && msg_drop_bp == 0 && msg_duplicate_bp == 0 &&
           msg_delay_bp == 0 && clock_skew_amplitude == 0;
}

bool plan::destructive() const
{
    return fetch_timeout_bp > 0 || fetch_reset_bp > 0 || fetch_partial_bp > 0 ||
           worker_spawn_fail_bp > 0 || worker_crash_bp > 0 || msg_drop_bp > 0;
}

std::string plan::str() const
{
    std::ostringstream out;
    for (const field_ref& f : fields()) out << f.key << "=" << f.get(*this) << ";";
    return out.str();
}

plan plan::parse(const std::string& text)
{
    plan out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t semi = text.find(';', pos);
        if (semi == std::string::npos) {
            throw std::invalid_argument("faults::plan::parse: missing ';' terminator");
        }
        const std::string entry = text.substr(pos, semi - pos);
        pos = semi + 1;
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("faults::plan::parse: entry without '=': " + entry);
        }
        const std::string key = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);
        const field_ref* field = nullptr;
        for (const field_ref& f : fields()) {
            if (key == f.key) {
                field = &f;
                break;
            }
        }
        if (field == nullptr) {
            throw std::invalid_argument("faults::plan::parse: unknown key: " + key);
        }
        char* end = nullptr;
        const long long parsed = std::strtoll(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
            throw std::invalid_argument("faults::plan::parse: bad number for " + key + ": " +
                                        value);
        }
        field->set(out, static_cast<std::int64_t>(parsed));
    }
    return out;
}

plan plan::perturb_only(std::uint64_t seed)
{
    plan p;
    p.seed = seed;
    p.fetch_spike_bp = 1500;
    p.fetch_spike = 40 * sim::ms;
    p.msg_duplicate_bp = 800;
    p.msg_delay_bp = 1500;
    p.msg_delay = 3 * sim::ms;
    p.clock_skew_amplitude = 400 * sim::us;
    p.clock_skew_period = 5 * sim::ms;
    return p;
}

plan plan::network_chaos(std::uint64_t seed)
{
    plan p = perturb_only(seed);
    p.fetch_timeout_bp = 800;
    p.fetch_reset_bp = 800;
    p.fetch_partial_bp = 500;
    p.fetch_timeout_after = 200 * sim::ms;
    return p;
}

plan plan::worker_chaos(std::uint64_t seed)
{
    plan p = perturb_only(seed);
    p.worker_spawn_fail_bp = 1000;
    p.worker_crash_bp = 1000;
    p.worker_crash_after = 15 * sim::ms;
    p.worker_termination_delay = 4 * sim::ms;
    return p;
}

plan plan::channel_chaos(std::uint64_t seed)
{
    plan p = perturb_only(seed);
    p.msg_drop_bp = 700;
    return p;
}

plan plan::full_chaos(std::uint64_t seed)
{
    plan p = network_chaos(seed);
    p.worker_spawn_fail_bp = 600;
    p.worker_crash_bp = 600;
    p.worker_crash_after = 15 * sim::ms;
    p.worker_termination_delay = 4 * sim::ms;
    p.msg_drop_bp = 500;
    return p;
}

plan plan::sample(std::uint64_t index)
{
    const std::uint64_t seed = mix64(index ^ 0xFA017C0DEULL);
    switch (index % 5) {
        case 0: return perturb_only(seed);
        case 1: return network_chaos(seed);
        case 2: return worker_chaos(seed);
        case 3: return channel_chaos(seed);
        default: return full_chaos(seed);
    }
}

}  // namespace jsk::faults
