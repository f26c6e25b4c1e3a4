// Deterministic, seedable random number generation for the simulator.
//
// We intentionally avoid std::mt19937 + std::distributions because their
// outputs differ across standard-library implementations; the whole point of
// this simulator is bit-for-bit reproducibility of experiment tables.
#pragma once

#include <array>
#include <cstdint>

#include "sim/hash.h"

namespace jsk::sim {

/// Derive an independent child seed from (root, stream_id): the stream id is
/// first diffused through mix64 (so consecutive ids land far apart),
/// xor-folded into the root, and the mix diffused again. Pure and stateless —
/// the canonical way to hand each shard/worker/walk its own seed stream
/// (`jsk::par` and the sweep drivers use it; don't improvise `seed + i`
/// arithmetic, which correlates neighbouring streams).
constexpr std::uint64_t split(std::uint64_t root, std::uint64_t stream_id)
{
    return mix64(root ^ mix64(stream_id));
}

/// xoshiro256** generator: fast, high-quality, fully deterministic.
class rng {
public:
    explicit rng(std::uint64_t seed = 0x6a736b65726e656cULL)  // "jskernel"
    {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    std::uint64_t next_u64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform(std::int64_t lo, std::int64_t hi)
    {
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(next_u64() % span);
    }

    /// Approximately normal deviate via sum of uniforms (Irwin–Hall, n=12);
    /// good enough for jitter modelling and fully portable.
    double normal(double mean, double stddev)
    {
        double acc = 0.0;
        for (int i = 0; i < 12; ++i) acc += next_double();
        return mean + (acc - 6.0) * stddev;
    }

    /// Bernoulli trial.
    bool chance(double p) { return next_double() < p; }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

}  // namespace jsk::sim
