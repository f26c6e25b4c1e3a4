// Open-addressed hash index from 64-bit ids to 32-bit slot numbers: linear
// probing, tombstoned erase (keeps probe chains intact), power-of-two tables.
// Sequential ids are decorrelated with sim::mix64 (sim/hash.h). Amortized
// allocation only on growth/rehash — the steady-state find/insert/erase path
// never allocates. Shared by the simulator's pending-task arena; the kernel
// event_queue uses the same scheme internally.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/hash.h"

namespace jsk::sim::detail {

class id_index {
public:
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    [[nodiscard]] std::uint32_t find(std::uint64_t id) const
    {
        if (keys_.empty()) return npos;
        const std::size_t mask = keys_.size() - 1;
        std::size_t pos = mix64(id) & mask;
        while (state_[pos] != 0) {
            if (state_[pos] == 1 && keys_[pos] == id) return slots_[pos];
            pos = (pos + 1) & mask;
        }
        return npos;
    }

    void insert(std::uint64_t id, std::uint32_t slot)
    {
        if (keys_.empty() || (filled_ + 1) * 4 > keys_.size() * 3) {
            rehash(std::max<std::size_t>(64, (used_ + 1) * 2));
        }
        const std::size_t mask = keys_.size() - 1;
        std::size_t pos = mix64(id) & mask;
        while (state_[pos] == 1) pos = (pos + 1) & mask;
        if (state_[pos] == 0) ++filled_;  // reusing a tombstone keeps filled_
        keys_[pos] = id;
        slots_[pos] = slot;
        state_[pos] = 1;
        ++used_;
    }

    void erase(std::uint64_t id)
    {
        if (keys_.empty()) return;
        const std::size_t mask = keys_.size() - 1;
        std::size_t pos = mix64(id) & mask;
        while (state_[pos] != 0) {
            if (state_[pos] == 1 && keys_[pos] == id) {
                state_[pos] = 2;  // tombstone
                --used_;
                return;
            }
            pos = (pos + 1) & mask;
        }
    }

    void clear()
    {
        keys_.clear();
        slots_.clear();
        state_.clear();
        used_ = 0;
        filled_ = 0;
    }

private:
    void rehash(std::size_t min_capacity)
    {
        std::size_t cap = 64;
        while (cap < min_capacity) cap *= 2;
        std::vector<std::uint64_t> keys(cap);
        std::vector<std::uint32_t> slots(cap);
        std::vector<std::uint8_t> state(cap, 0);
        const std::size_t mask = cap - 1;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (state_[i] != 1) continue;
            std::size_t pos = mix64(keys_[i]) & mask;
            while (state[pos] != 0) pos = (pos + 1) & mask;
            keys[pos] = keys_[i];
            slots[pos] = slots_[i];
            state[pos] = 1;
        }
        keys_ = std::move(keys);
        slots_ = std::move(slots);
        state_ = std::move(state);
        filled_ = used_;
    }

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> slots_;
    std::vector<std::uint8_t> state_;  // 0 empty, 1 full, 2 tombstone
    std::size_t used_ = 0;
    std::size_t filled_ = 0;
};

}  // namespace jsk::sim::detail
