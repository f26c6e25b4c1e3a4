// The repository's two non-cryptographic hashes, in one place.
//
//  * splitmix64 — the 64-bit finaliser that decorrelates sequential ids in
//    the open-addressed indexes (sim/id_index.h, kernel event_queue), seeds
//    the rng, and turns (seed, site tag, sequence) into fault decisions.
//  * FNV-1a — the platform-stable digest over bytes: witness keys and shard
//    assignment (par/cache.h, svc/store), journal class hashes and DPOR
//    equivalence-class hashes. Integers are hashed as their little-endian
//    bytes, never as raw object memory.
//
// Every output here is pinned by golden tests (test_rng_golden, the witness
// cache digests, the A/B determinism rows): changing a constant changes
// recorded artifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jsk::sim {

/// splitmix64's output for state `x`: a stateless 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// One step of the splitmix64 generator: returns mix64(state) and advances
/// the state. Used to seed xoshiro and to derive child seeds (sim/rng.h).
constexpr std::uint64_t splitmix64(std::uint64_t& state)
{
    const std::uint64_t out = mix64(state);
    state += 0x9e3779b97f4a7c15ULL;
    return out;
}

inline constexpr std::uint64_t fnv1a_offset = 14695981039346656037ULL;
inline constexpr std::uint64_t fnv1a_prime = 1099511628211ULL;

/// FNV-1a over `bytes`, continuing from `h` (the offset basis by default).
constexpr std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = fnv1a_offset)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= fnv1a_prime;
    }
    return h;
}

/// Continue FNV-1a hash `h` over the little-endian bytes of `v`.
template <typename UInt>
constexpr std::uint64_t fnv1a_le(std::uint64_t h, UInt v)
{
    for (std::size_t i = 0; i < sizeof(UInt); ++i) {
        h ^= static_cast<unsigned char>(v >> (8 * i));
        h *= fnv1a_prime;
    }
    return h;
}

}  // namespace jsk::sim
