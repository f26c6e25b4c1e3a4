// Property-based tests: randomized sweeps over the core invariants.
#include <gtest/gtest.h>

#include <map>

#include "kernel/kernel.h"
#include "runtime/rearm.h"
#include "sim/rng.h"

namespace {

using namespace jsk;
namespace sim = jsk::sim;
namespace rt = jsk::rt;

// --- event queue vs a reference model -------------------------------------------

class event_queue_property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(event_queue_property, matches_reference_model_under_random_ops)
{
    sim::rng rng(GetParam());
    kernel::event_queue queue;
    // Reference: map keyed by (predicted, id).
    std::map<std::pair<double, std::uint64_t>, std::uint64_t> reference;
    std::uint64_t next_id = 1;

    for (int step = 0; step < 2'000; ++step) {
        const auto op = rng.uniform(0, 3);
        if (op == 0 || reference.empty()) {  // push
            kernel::kevent ev;
            ev.id = next_id++;
            ev.predicted_time = static_cast<double>(rng.uniform(0, 500));
            queue.push(ev);
            reference.emplace(std::make_pair(ev.predicted_time, ev.id), ev.id);
        } else if (op == 1) {  // pop
            const auto popped = queue.pop();
            ASSERT_EQ(popped.id, reference.begin()->second);
            reference.erase(reference.begin());
        } else if (op == 2) {  // remove random live id
            const auto index = rng.uniform(0, static_cast<std::int64_t>(reference.size()) - 1);
            auto it = reference.begin();
            std::advance(it, index);
            ASSERT_TRUE(queue.remove(it->second));
            reference.erase(it);
        } else {  // lookup
            const auto index = rng.uniform(0, static_cast<std::int64_t>(reference.size()) - 1);
            auto it = reference.begin();
            std::advance(it, index);
            auto* found = queue.lookup(it->second);
            ASSERT_NE(found, nullptr);
            ASSERT_EQ(found->id, it->second);
        }
        ASSERT_EQ(queue.size(), reference.size());
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, event_queue_property,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99999u));

// --- simulation ordering properties ----------------------------------------------

class simulation_property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(simulation_property, observed_starts_are_monotone_and_causal)
{
    sim::rng rng(GetParam());
    sim::simulation s;
    std::vector<sim::thread_id> threads;
    for (int i = 0; i < 4; ++i) threads.push_back(s.create_thread("t" + std::to_string(i)));

    std::vector<sim::time_ns> starts;
    s.add_task_observer([&](const sim::task_info& info) {
        ASSERT_GE(info.start, info.ready_at);  // causality: never before ready
        ASSERT_GE(info.end, info.start);
        starts.push_back(info.start);
    });
    for (int i = 0; i < 300; ++i) {
        const auto thread = threads[static_cast<std::size_t>(rng.uniform(0, 3))];
        const auto when = rng.uniform(0, 200) * sim::ms;
        const auto cost = rng.uniform(0, 3) * sim::ms;
        s.post(thread, when, [&s, cost] { s.consume(cost); });
    }
    s.run();
    ASSERT_EQ(starts.size(), 300u);
    for (std::size_t i = 1; i < starts.size(); ++i) {
        ASSERT_GE(starts[i], starts[i - 1]);  // global start-time order
    }
}

TEST_P(simulation_property, per_thread_tasks_never_overlap)
{
    sim::rng rng(GetParam() + 1);
    sim::simulation s;
    const auto t0 = s.create_thread("a");
    const auto t1 = s.create_thread("b");
    std::unordered_map<int, sim::time_ns> last_end;
    s.add_task_observer([&](const sim::task_info& info) {
        auto it = last_end.find(info.thread);
        if (it != last_end.end()) ASSERT_GE(info.start, it->second);
        last_end[info.thread] = info.end;
    });
    for (int i = 0; i < 200; ++i) {
        const auto thread = rng.chance(0.5) ? t0 : t1;
        s.post(thread, rng.uniform(0, 100) * sim::ms,
               [&s, c = rng.uniform(0, 5) * sim::ms] { s.consume(c); });
    }
    s.run();
}

INSTANTIATE_TEST_SUITE_P(seeds, simulation_property,
                         ::testing::Values(3u, 11u, 101u, 5000u));

// --- kernel determinism sweep ------------------------------------------------------

struct secret_pair {
    sim::time_ns a;
    sim::time_ns b;
};

class determinism_sweep : public ::testing::TestWithParam<secret_pair> {};

TEST_P(determinism_sweep, timer_tick_counts_are_secret_invariant)
{
    const auto run = [](sim::time_ns secret) {
        rt::browser b(rt::chrome_profile());
        auto k = kernel::kernel::boot(b);
        b.net().serve(rt::resource{"https://x/s", "https://x", rt::resource_kind::data, 256,
                                   0, 0, secret});
        auto ticks = std::make_shared<long>(0);
        auto done = std::make_shared<bool>(false);
        b.main().post_task(0, [&b, ticks, done] {
            b.main().apis().set_timeout(rt::rearming([&b, ticks, done](const auto& again) {
                                            if (*done) return;
                                            ++*ticks;
                                            b.main().apis().set_timeout(again, 0);
                                        }),
                                        0);
            b.main().apis().fetch(
                "https://x/s", {}, [done](const rt::fetch_result&) { *done = true; },
                nullptr);
        });
        b.run_until(20 * sim::sec);
        return *ticks;
    };
    EXPECT_EQ(run(GetParam().a), run(GetParam().b));
}

INSTANTIATE_TEST_SUITE_P(
    secrets, determinism_sweep,
    ::testing::Values(secret_pair{0, 1 * sim::sec}, secret_pair{1 * sim::ms, 700 * sim::ms},
                      secret_pair{5 * sim::ms, 6 * sim::ms},
                      secret_pair{100 * sim::ms, 101 * sim::ms},
                      secret_pair{250 * sim::us, 2 * sim::sec}));

// --- structured clone round-trip property --------------------------------------------

class clone_property : public ::testing::TestWithParam<std::uint64_t> {};

rt::js_value random_value(sim::rng& rng, int depth)
{
    const auto kind = rng.uniform(0, depth > 2 ? 3 : 5);
    switch (kind) {
        case 0: return rt::js_value{static_cast<double>(rng.uniform(-1000, 1000))};
        case 1: return rt::js_value{"s" + std::to_string(rng.uniform(0, 99))};
        case 2: return rt::js_value{rng.chance(0.5)};
        case 3: return rt::js_value{nullptr};
        case 4: {
            rt::js_array arr;
            const auto n = rng.uniform(0, 4);
            for (std::int64_t i = 0; i < n; ++i) arr.push_back(random_value(rng, depth + 1));
            return rt::js_value{std::move(arr)};
        }
        default: {
            rt::js_object obj;
            const auto n = rng.uniform(0, 4);
            for (std::int64_t i = 0; i < n; ++i) {
                obj["k" + std::to_string(i)] = random_value(rng, depth + 1);
            }
            return rt::js_value{std::move(obj)};
        }
    }
}

TEST_P(clone_property, clone_preserves_serialized_form)
{
    sim::rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const rt::js_value original = random_value(rng, 0);
        const rt::js_value copy = rt::structured_clone(original);
        EXPECT_EQ(original.to_string(), copy.to_string());
        EXPECT_EQ(original.byte_size(), copy.byte_size());
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, clone_property, ::testing::Values(2u, 29u, 444u));

}  // namespace
