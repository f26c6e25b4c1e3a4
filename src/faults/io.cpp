#include "faults/io.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "sim/hash.h"

namespace jsk::faults {
namespace {

using sim::mix64;

// Disjoint from the runtime injector's 0xF37Cxxxx site tags.
constexpr std::uint32_t tag_write = 0x10F50001u;
constexpr std::uint32_t tag_flush = 0x10F50002u;
constexpr std::uint32_t tag_fsync = 0x10F50003u;
constexpr std::uint32_t tag_rename = 0x10F50004u;

// The same flat key=value codec as faults::plan — one table shared by
// str() and parse() so field order and names cannot drift.
struct field_ref {
    const char* key;
    std::uint64_t (*get)(const io_plan&);
    void (*set)(io_plan&, std::uint64_t);
};

template <typename T, T io_plan::* M>
field_ref make_field(const char* key)
{
    return field_ref{
        key,
        [](const io_plan& p) { return static_cast<std::uint64_t>(p.*M); },
        [](io_plan& p, std::uint64_t v) { p.*M = static_cast<T>(v); },
    };
}

const std::vector<field_ref>& fields()
{
    static const std::vector<field_ref> f = {
        make_field<std::uint64_t, &io_plan::seed>("seed"),
        make_field<std::uint32_t, &io_plan::write_eintr_bp>("write_eintr_bp"),
        make_field<std::uint32_t, &io_plan::write_short_bp>("write_short_bp"),
        make_field<std::uint32_t, &io_plan::write_enospc_bp>("write_enospc_bp"),
        make_field<std::uint32_t, &io_plan::flush_fail_bp>("flush_fail_bp"),
        make_field<std::uint32_t, &io_plan::fsync_fail_bp>("fsync_fail_bp"),
        make_field<std::uint32_t, &io_plan::rename_fail_bp>("rename_fail_bp"),
        make_field<std::uint64_t, &io_plan::crash_at>("crash_at"),
    };
    return f;
}

}  // namespace

bool io_plan::null_plan() const
{
    return write_eintr_bp == 0 && write_short_bp == 0 && write_enospc_bp == 0 &&
           flush_fail_bp == 0 && fsync_fail_bp == 0 && rename_fail_bp == 0 &&
           crash_at == 0;
}

bool io_plan::persistent() const
{
    return write_enospc_bp > 0 || flush_fail_bp > 0 || fsync_fail_bp > 0 ||
           rename_fail_bp > 0;
}

std::string io_plan::str() const
{
    std::ostringstream out;
    for (const field_ref& f : fields()) out << f.key << "=" << f.get(*this) << ";";
    return out.str();
}

io_plan io_plan::parse(const std::string& text)
{
    io_plan out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t semi = text.find(';', pos);
        if (semi == std::string::npos) {
            throw std::invalid_argument("faults::io_plan::parse: missing ';' terminator");
        }
        const std::string entry = text.substr(pos, semi - pos);
        pos = semi + 1;
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("faults::io_plan::parse: entry without '=': " +
                                        entry);
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
            throw std::invalid_argument("faults::io_plan::parse: unknown key: " + key);
        }
        char* end = nullptr;
        const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
            throw std::invalid_argument("faults::io_plan::parse: bad number for " + key +
                                        ": " + value);
        }
        field->set(out, static_cast<std::uint64_t>(parsed));
    }
    return out;
}

io_plan io_plan::transient_only(std::uint64_t seed)
{
    io_plan p;
    p.seed = mix64(seed ^ 0x10AD0001ULL);
    p.write_eintr_bp = 1'500;
    p.write_short_bp = 2'000;
    return p;
}

io_plan io_plan::disk_pressure(std::uint64_t seed)
{
    io_plan p = transient_only(seed);
    p.seed = mix64(seed ^ 0x10AD0002ULL);
    p.write_enospc_bp = 800;
    return p;
}

io_plan io_plan::sync_failures(std::uint64_t seed)
{
    io_plan p;
    p.seed = mix64(seed ^ 0x10AD0003ULL);
    p.flush_fail_bp = 600;
    p.fsync_fail_bp = 1'200;
    return p;
}

io_plan io_plan::full_io_chaos(std::uint64_t seed)
{
    io_plan p;
    p.seed = mix64(seed ^ 0x10AD0004ULL);
    p.write_eintr_bp = 1'000;
    p.write_short_bp = 1'500;
    p.write_enospc_bp = 500;
    p.flush_fail_bp = 400;
    p.fsync_fail_bp = 800;
    p.rename_fail_bp = 300;
    return p;
}

io_plan io_plan::sample(std::uint64_t index)
{
    const std::uint64_t seed = mix64(index * 0x9E3779B97F4A7C15ULL + 1);
    switch (index % 4) {
        case 0: return transient_only(seed);
        case 1: return disk_pressure(seed);
        case 2: return sync_failures(seed);
        default: return full_io_chaos(seed);
    }
}

std::uint32_t io_injector::roll(std::uint32_t tag, std::uint64_t seq,
                                std::uint32_t salt) const
{
    const std::uint64_t key =
        plan_.seed ^ (static_cast<std::uint64_t>(tag) << 32) ^ (seq * 0x10001ULL) ^ salt;
    return static_cast<std::uint32_t>(mix64(key) % 10'000u);
}

io_injector::write_decision io_injector::on_write(std::size_t n)
{
    const std::uint64_t seq = write_seq_++;
    ++decisions_;
    write_decision d;
    if (roll(tag_write, seq, 1) < plan_.write_enospc_bp) {
        d.kind = write_fault::enospc;
        ++enospcs_;
    } else if (roll(tag_write, seq, 2) < plan_.write_eintr_bp) {
        d.kind = write_fault::eintr;
        ++eintrs_;
    } else if (n > 1 && roll(tag_write, seq, 3) < plan_.write_short_bp) {
        d.kind = write_fault::short_write;
        // 1 <= progress < n: the write lands a deterministic strict prefix.
        d.progress = 1 + roll(tag_write, seq, 4) % (n - 1);
        ++short_writes_;
    }
    if (d.kind != write_fault::none) ++injected_;
    return d;
}

bool io_injector::on_flush()
{
    const std::uint64_t seq = flush_seq_++;
    ++decisions_;
    if (roll(tag_flush, seq, 1) < plan_.flush_fail_bp) {
        ++flush_failures_;
        ++injected_;
        return true;
    }
    return false;
}

bool io_injector::on_fsync()
{
    const std::uint64_t seq = fsync_seq_++;
    ++decisions_;
    if (roll(tag_fsync, seq, 1) < plan_.fsync_fail_bp) {
        ++fsync_failures_;
        ++injected_;
        return true;
    }
    return false;
}

bool io_injector::on_rename()
{
    const std::uint64_t seq = rename_seq_++;
    ++decisions_;
    if (roll(tag_rename, seq, 1) < plan_.rename_fail_bp) {
        ++rename_failures_;
        ++injected_;
        return true;
    }
    return false;
}

void io_injector::crash_point(const char* site)
{
    ++crash_ops_;
    if (crash_ops_ == plan_.crash_at) throw crash_error(site);
}

}  // namespace jsk::faults
