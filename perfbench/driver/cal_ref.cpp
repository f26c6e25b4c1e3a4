// The calibration reference op (see cal_ref.h). This file must include no
// repository header and allocate only through `pool` below; the
// benchmark's own tests check both.
#include "cal_ref.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <new>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t k_buffer_bytes = std::size_t{16} << 20;
alignas(64) std::byte g_buffer[k_buffer_bytes];

constexpr std::uint64_t k_events = 24'000;  // ~10 ms on a 2020s x86 server core
constexpr std::uint32_t k_lanes = 16'384;
constexpr std::uint32_t k_lane_cap = 12;
constexpr std::uint32_t k_seed_events = 256;

struct loop;
using handler = void (*)(loop&, void* env);

struct event {
    std::uint64_t at = 0;
    std::uint64_t seq = 0;
    handler fn = nullptr;
    void* env = nullptr;
};

struct later {
    bool operator()(const event& a, const event& b) const
    {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
};

struct node {
    node* next = nullptr;
    std::uint32_t bytes = 0;
    std::uint32_t tag = 0;
};

struct env_small {
    std::uint32_t lane = 0;
    std::uint32_t hops = 0;
};

struct env_big {
    std::uint32_t lane = 0;
    std::uint32_t hops = 0;
    std::uint64_t words[12] = {};
};

struct loop {
    explicit loop(std::pmr::memory_resource* m)
        : mem(m), heap(m), heads(k_lanes, nullptr, m), lens(k_lanes, 0, m)
    {
        heap.reserve(4096);
    }

    std::uint64_t next()
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    }

    void post(std::uint64_t delay, handler fn, void* env)
    {
        heap.push_back(event{now + delay, seq++, fn, env});
        std::push_heap(heap.begin(), heap.end(), later{});
    }

    [[nodiscard]] bool budget_left() const { return seq < k_events; }

    void link(std::uint32_t lane)
    {
        const auto bytes = static_cast<std::uint32_t>(16 + (next() % 15) * 16);
        node* n = ::new (mem->allocate(bytes, alignof(node))) node{};
        n->bytes = bytes;
        n->tag = static_cast<std::uint32_t>(next());
        n->next = heads[lane];
        heads[lane] = n;
        if (++lens[lane] > k_lane_cap) unlink(lane);
    }

    void unlink(std::uint32_t lane)
    {
        node* n = heads[lane];
        if (n == nullptr) return;
        heads[lane] = n->next;
        --lens[lane];
        sum += n->tag;
        mem->deallocate(n, n->bytes, alignof(node));
    }

    std::uint64_t walk(std::uint32_t lane, std::uint32_t depth)
    {
        std::uint64_t acc = 0;
        for (node* n = heads[lane]; n != nullptr && depth > 0; n = n->next, --depth) {
            acc = acc * 31 + n->tag;
            if ((n->tag & 7) == 0) acc ^= n->bytes;
        }
        return acc;
    }

    std::pmr::memory_resource* mem;
    std::pmr::vector<event> heap;
    std::pmr::vector<node*> heads;
    std::pmr::vector<std::uint32_t> lens;
    std::uint64_t now = 0;
    std::uint64_t seq = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sum = 0;
    std::uint64_t executed = 0;
};

void on_spawn(loop& l, void* env);
void on_touch(loop& l, void* env);
void on_timer(loop& l, void* env);

template <class Env>
Env* make_env(loop& l, std::uint32_t lane, std::uint32_t hops)
{
    Env* e = std::pmr::polymorphic_allocator<>(l.mem).new_object<Env>();
    e->lane = lane;
    e->hops = hops;
    return e;
}

template <class Env>
void drop_env(loop& l, Env* e)
{
    std::pmr::polymorphic_allocator<>(l.mem).delete_object(e);
}

void on_spawn(loop& l, void* raw)
{
    auto* e = static_cast<env_small*>(raw);
    l.link(e->lane);
    if (l.budget_left()) {
        l.post(l.next() % 50, on_touch, make_env<env_small>(l, e->lane, e->hops + 1));
    }
    if (l.budget_left() && (l.next() & 3) == 0) {
        auto* t = make_env<env_big>(l, static_cast<std::uint32_t>(l.next() % k_lanes), 0);
        for (std::uint64_t& w : t->words) w = l.next();
        l.post(40 + l.next() % 200, on_timer, t);
    }
    drop_env(l, e);
}

void on_touch(loop& l, void* raw)
{
    auto* e = static_cast<env_small*>(raw);
    l.sum += l.walk(e->lane, 1 + e->hops % 12);
    if ((l.next() % 3) == 0) l.unlink(e->lane);
    if (l.budget_left()) {
        const auto lane = static_cast<std::uint32_t>((e->lane + l.next() % 5) % k_lanes);
        if ((l.next() & 1) == 0) {
            l.post(l.next() % 30, on_spawn, make_env<env_small>(l, lane, e->hops));
        } else {
            l.post(1 + l.next() % 10, on_touch, make_env<env_small>(l, lane, e->hops + 1));
        }
    }
    drop_env(l, e);
}

void on_timer(loop& l, void* raw)
{
    auto* e = static_cast<env_big*>(raw);
    std::uint64_t acc = 0;
    for (const std::uint64_t w : e->words) acc = (acc ^ w) * 0x100000001b3ULL;
    l.sum += acc;
    if (l.budget_left()) {
        l.post(l.next() % 20, on_spawn, make_env<env_small>(l, e->lane, 0));
    }
    drop_env(l, e);
}

std::uint64_t run_loop(std::pmr::memory_resource* pool)
{
    loop l(pool);
    for (std::uint32_t i = 0; i < k_seed_events; ++i) {
        l.post(l.next() % 100, on_spawn, make_env<env_small>(l, i % k_lanes, 0));
    }
    while (!l.heap.empty()) {
        std::pop_heap(l.heap.begin(), l.heap.end(), later{});
        const event ev = l.heap.back();
        l.heap.pop_back();
        l.now = ev.at;
        ++l.executed;
        ev.fn(l, ev.env);
    }
    for (std::uint32_t lane = 0; lane < k_lanes; ++lane) {
        while (l.heads[lane] != nullptr) l.unlink(lane);
    }
    return l.sum ^ (l.executed << 40) ^ l.now;
}

}  // namespace

std::uint64_t cal_ref_op()
{
    std::pmr::monotonic_buffer_resource upstream(g_buffer, k_buffer_bytes,
                                                 std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&upstream);
    return run_loop(&pool);
}

bool cal_ref_pool_is_closed()
{
    std::pmr::monotonic_buffer_resource upstream(g_buffer, k_buffer_bytes,
                                                 std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&upstream);
    try {
        (void)pool.allocate(k_buffer_bytes + 1);
    } catch (const std::bad_alloc&) {
        return true;
    }
    return false;
}

}  // namespace perfbench
