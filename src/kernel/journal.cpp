#include "kernel/journal.h"

#include <bit>
#include <sstream>

#include "sim/hash.h"

namespace jsk::kernel {

std::string journal::to_json() const
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const auto& e = entries_[i];
        os << "  {\"seq\": " << e.seq << ", \"event\": " << e.event_id << ", \"type\": \""
           << to_string(e.type) << "\", \"predicted\": " << e.predicted_time
           << ", \"label\": \"" << e.label << "\"}";
        if (i + 1 < entries_.size()) os << ",";
        os << "\n";
    }
    os << "]";
    return os.str();
}

std::size_t journal::first_divergence(const journal& other) const
{
    const std::size_t n = std::min(entries_.size(), other.entries_.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(entries_[i] == other.entries_[i])) return i;
    }
    if (entries_.size() != other.entries_.size()) return n;
    return npos;
}

std::string journal::diff_description(const journal& other) const
{
    const std::size_t at = first_divergence(other);
    if (at == npos) return {};

    const auto describe = [](const std::vector<journal_entry>& entries, std::size_t i) {
        if (i >= entries.size()) return std::string("<end of journal>");
        const auto& e = entries[i];
        std::ostringstream os;
        os << to_string(e.type) << " \"" << e.label << "\" @" << e.predicted_time;
        return os.str();
    };

    std::ostringstream os;
    os << "journals diverge at seq " << at << ": " << describe(entries_, at) << " vs "
       << describe(other.entries_, at) << " (sizes " << entries_.size() << "/"
       << other.entries_.size() << ")";
    return os.str();
}

std::uint64_t journal::class_hash() const
{
    std::uint64_t h = sim::fnv1a_offset;
    for (const auto& e : entries_) {
        h = sim::fnv1a_le(h, static_cast<std::uint64_t>(e.type));
        h = sim::fnv1a_le(h, std::bit_cast<std::uint64_t>(e.predicted_time));
        h = sim::fnv1a(e.label, h);
        h = sim::fnv1a("\x1f", h);  // label separator: no concat collisions
    }
    return h;
}

}  // namespace jsk::kernel
