// jsk::par — witness-keyed result cache.
//
// Every simulation in this repo is a pure function of its witness: the
// (program id, seed, fault-plan string, decision string, defense id) tuple
// that the explore and chaos subsystems already print, replay, and paste
// back into CLIs. That purity is what makes caching sound: a cached value *is* the
// value a fresh run would produce, so sweeps that consult the cache emit
// byte-identical aggregates whether a trial was simulated or recalled.
//
// The cache is sharded — key-hash picks one of a fixed set of
// (mutex, unordered_map) shards — so parallel sweep workers contend only
// when their keys collide in a shard, and is keyed by the *full* tuple
// (hash selects the shard and bucket; equality is on the tuple itself, so a
// 64-bit collision can never alias two witnesses). Values are held behind
// shared_ptr<const V>: lookups never copy the stored journals/traces and
// stay valid even if the cache is cleared mid-use.
//
// Drivers take the cache as an optional pointer (default nullptr = every
// trial simulated). Determinism suites that *measure* replay (run twice,
// compare bytes) must run uncached, or the second run compares a value with
// itself.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/bytes.h"
#include "sim/hash.h"

namespace jsk::par {

/// The replayable identity of one simulated interleaving. `decisions` is an
/// explore decision string ("" = default schedule), `plan` a
/// faults::plan::str() serialization ("" = no injector), `defense` a defense
/// id name ("plain" when none installed), `program` the identity of the
/// workload itself — a CVE id or program-seed spelling. Sweeps run many
/// programs under the same (seed, plan, defense); without `program`, two
/// CVEs' default-schedule trials would share a key and recall each other's
/// outcomes.
struct witness_key {
    std::uint64_t seed = 0;
    std::string plan;
    std::string decisions;
    std::string defense;
    std::string program;

    bool operator==(const witness_key&) const = default;

    /// Canonical total order — (seed, plan, decisions, defense, program),
    /// the same order the serialized form compares in. Spill files and
    /// iteration hooks sort by this so on-disk bytes are deterministic.
    friend bool operator<(const witness_key& a, const witness_key& b)
    {
        if (a.seed != b.seed) return a.seed < b.seed;
        if (a.plan != b.plan) return a.plan < b.plan;
        if (a.decisions != b.decisions) return a.decisions < b.decisions;
        if (a.defense != b.defense) return a.defense < b.defense;
        return a.program < b.program;
    }
};

/// Canonical serialized form of a witness key — the *persistent* identity:
/// little-endian u64 seed, then each string field u32-length-prefixed, in
/// declaration order. This is what the svc store writes as the record key
/// and what hash() digests, so on-disk keys survive recompilation, compiler
/// upgrades and platform changes (std::hash guarantees none of that).
inline std::string serialize(const witness_key& k)
{
    std::string out;
    out.reserve(8 + 4 * 4 + k.plan.size() + k.decisions.size() + k.defense.size() +
                k.program.size());
    sim::bytes::put_u64(out, k.seed);
    sim::bytes::put_str(out, k.plan);
    sim::bytes::put_str(out, k.decisions);
    sim::bytes::put_str(out, k.defense);
    sim::bytes::put_str(out, k.program);
    return out;
}

/// Inverse of serialize(); nullopt on truncated/trailing bytes.
inline std::optional<witness_key> parse_witness(const std::string& bytes)
{
    sim::bytes::reader r(bytes);
    witness_key k;
    const auto seed = r.get_u64();
    if (!seed) return std::nullopt;
    k.seed = *seed;
    auto plan = r.get_str();
    auto decisions = r.get_str();
    auto defense = r.get_str();
    auto program = r.get_str();
    if (!plan || !decisions || !defense || !program || !r.done()) return std::nullopt;
    k.plan = std::move(*plan);
    k.decisions = std::move(*decisions);
    k.defense = std::move(*defense);
    k.program = std::move(*program);
    return k;
}

/// FNV-1a over a byte string (sim/hash.h) — the digest the sweeps use to
/// compare per-shard journals/traces without holding every oracle in
/// memory. Stable across platforms (unlike std::hash).
using sim::fnv1a;

/// FNV-1a over the canonical serialized form — byte-for-byte equal to
/// fnv1a(serialize(k)) without materializing the string, so the in-memory
/// hash, the on-disk shard assignment and any external tool digesting a
/// record's key bytes all agree. (Length prefixes play the field-separator
/// role: ("ab","c") and ("a","bc") serialize — and hash — differently.)
inline std::uint64_t hash(const witness_key& k)
{
    std::uint64_t h = sim::fnv1a_le(sim::fnv1a_offset, k.seed);
    for (const std::string* field : {&k.plan, &k.decisions, &k.defense, &k.program}) {
        h = sim::fnv1a(*field, sim::fnv1a_le(h, static_cast<std::uint32_t>(field->size())));
    }
    return h;
}

/// Thread-safe sharded map from witness to result. V is immutable once
/// inserted; re-inserting an existing key keeps the first value (all writers
/// computed the same bytes, so it cannot matter which survives).
template <typename V>
class result_cache {
public:
    static constexpr std::size_t shard_count = 16;

    struct stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
    };

    /// nullptr on miss; the returned pointer never dangles.
    std::shared_ptr<const V> lookup(const witness_key& key)
    {
        shard& sh = shard_for(key);
        std::lock_guard<std::mutex> lock(sh.mu);
        const auto it = sh.map.find(key);
        if (it == sh.map.end()) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    /// Store (or keep the existing) value; returns the resident one.
    /// `value_bytes` is the size this entry charges against bytes() — pass
    /// the serialized payload size when one exists (the svc spill path
    /// does); the default charges the in-memory struct, which is a floor,
    /// not an exact heap accounting. First-insert-wins: a losing insert
    /// charges nothing.
    std::shared_ptr<const V> insert(const witness_key& key, V value,
                                    std::size_t value_bytes = sizeof(V))
    {
        shard& sh = shard_for(key);
        std::lock_guard<std::mutex> lock(sh.mu);
        auto [it, inserted] =
            sh.map.try_emplace(key, std::make_shared<const V>(std::move(value)));
        if (inserted) {
            entries_.fetch_add(1, std::memory_order_relaxed);
            const std::size_t key_bytes = 8 + 4 * 4 + key.plan.size() +
                                          key.decisions.size() + key.defense.size() +
                                          key.program.size();
            bytes_.fetch_add(key_bytes + value_bytes, std::memory_order_relaxed);
        }
        return it->second;
    }

    /// Resident entry count (monotonic between clear()s).
    [[nodiscard]] std::uint64_t entries() const
    {
        return entries_.load(std::memory_order_relaxed);
    }

    /// Serialized-key bytes plus charged value bytes across all entries —
    /// what a full spill to disk would write (modulo record framing).
    [[nodiscard]] std::uint64_t bytes() const
    {
        return bytes_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] stats snapshot() const
    {
        stats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.entries = entries();
        s.bytes = bytes();
        return s;
    }

    /// Iteration hook for spill-to-disk: visit every (key, value) pair in
    /// canonical key order — deterministic regardless of insertion order or
    /// unordered_map internals, so a spilled file's bytes depend only on the
    /// cache's contents. Snapshots the entries under the shard locks first;
    /// `fn` runs lock-free (and may re-enter the cache).
    template <typename Fn>
    void for_each_sorted(Fn&& fn) const
    {
        std::vector<std::pair<witness_key, std::shared_ptr<const V>>> all;
        for (const shard& sh : shards_) {
            std::lock_guard<std::mutex> lock(sh.mu);
            for (const auto& [k, v] : sh.map) all.emplace_back(k, v);
        }
        std::sort(all.begin(), all.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [k, v] : all) fn(k, *v);
    }

    void clear()
    {
        for (shard& sh : shards_) {
            std::lock_guard<std::mutex> lock(sh.mu);
            sh.map.clear();
        }
        entries_.store(0, std::memory_order_relaxed);
        bytes_.store(0, std::memory_order_relaxed);
    }

private:
    struct key_hash {
        std::size_t operator()(const witness_key& k) const
        {
            return static_cast<std::size_t>(hash(k));
        }
    };

    struct shard {
        mutable std::mutex mu;
        std::unordered_map<witness_key, std::shared_ptr<const V>, key_hash> map;
    };

    shard& shard_for(const witness_key& key)
    {
        return shards_[hash(key) % shard_count];
    }

    std::array<shard, shard_count> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> entries_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace jsk::par
