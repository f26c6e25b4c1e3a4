// Unit tests for the jsk::obs observability subsystem: sink recording,
// Chrome trace-event export (pinned byte-for-byte against a golden string),
// schema validation of a real simulated scenario via kernel::json::parse,
// and metrics instruments.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/json.h"
#include "obs/chrome_export.h"
#include "obs/collect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace {

namespace obs = jsk::obs;
namespace sim = jsk::sim;
namespace json = jsk::kernel::json;

TEST(obs_sink, records_spans_and_instants_in_emission_order)
{
    obs::sink s;
    EXPECT_TRUE(s.empty());

    s.complete(obs::category::task, 0, 10 * sim::us, 5 * sim::us, "tick",
               {obs::num("id", 7)});
    s.instant(obs::category::timer, 1, 20 * sim::us, "timer:fire");
    ASSERT_EQ(s.size(), 2u);

    const obs::trace_event& span = s.events()[0];
    EXPECT_EQ(span.ph, 'X');
    EXPECT_EQ(span.cat, obs::category::task);
    EXPECT_EQ(span.tid, 0);
    EXPECT_EQ(span.ts, 10 * sim::us);
    EXPECT_EQ(span.dur, 5 * sim::us);
    EXPECT_EQ(span.name, "tick");

    const obs::trace_event& inst = s.events()[1];
    EXPECT_EQ(inst.ph, 'i');
    EXPECT_EQ(inst.cat, obs::category::timer);
    EXPECT_EQ(inst.dur, 0);

    s.clear();
    EXPECT_TRUE(s.empty());
}

TEST(obs_sink, negative_durations_clamp_to_zero)
{
    obs::sink s;
    s.complete(obs::category::kernel, 0, 5, -3, "x");
    EXPECT_EQ(s.events()[0].dur, 0);
}

TEST(obs_sink, find_arg_returns_typed_values)
{
    obs::sink s;
    s.instant(obs::category::policy, 0, 0, "policy:fetch",
              {obs::num("denied", 1), obs::num("score", 0.5),
               obs::text("url", "https://a.test/")});
    const obs::trace_event& ev = s.events()[0];

    const obs::arg* denied = obs::find_arg(ev, "denied");
    ASSERT_NE(denied, nullptr);
    EXPECT_EQ(denied->k, obs::arg::kind::i64);
    EXPECT_EQ(denied->i, 1);

    const obs::arg* score = obs::find_arg(ev, "score");
    ASSERT_NE(score, nullptr);
    EXPECT_EQ(score->k, obs::arg::kind::f64);
    EXPECT_DOUBLE_EQ(score->d, 0.5);

    const obs::arg* url = obs::find_arg(ev, "url");
    ASSERT_NE(url, nullptr);
    EXPECT_EQ(url->s, "https://a.test/");

    EXPECT_EQ(obs::find_arg(ev, "missing"), nullptr);
}

TEST(obs_sink, thread_names_register_and_rename)
{
    obs::sink s;
    s.set_thread_name(0, "main");
    s.set_thread_name(1, "worker");
    s.set_thread_name(0, "main-renamed");
    ASSERT_EQ(s.thread_names().size(), 2u);
    EXPECT_EQ(s.thread_names()[0].second, "main-renamed");
    EXPECT_EQ(s.thread_names()[1].second, "worker");
}

// The export format, pinned byte-for-byte. This golden string doubles as the
// format's documentation: process/thread metadata first, then one event per
// line ('X' with ts+dur, 'i' with thread scope), timestamps as fixed-point
// microseconds, typed args, displayTimeUnit and otherData trailer.
TEST(obs_export, golden_chrome_trace)
{
    obs::sink s;
    s.set_thread_name(0, "main");
    s.complete(obs::category::task, 0, 1500, 2500, "tick",
               {obs::num("id", 3), obs::num("ready", 0)});
    s.instant(obs::category::attack, 0, 4000, "trigger:CVE-2018-5092");

    const std::string got = obs::to_chrome_trace(s, "{\"seed\":1}");
    const std::string want =
        "{\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"jskernel\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"main\"}},\n"
        "{\"name\":\"tick\",\"cat\":\"task\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
        "\"ts\":1.500,\"dur\":2.500,\"args\":{\"id\":3,\"ready\":0}},\n"
        "{\"name\":\"trigger:CVE-2018-5092\",\"cat\":\"attack\",\"ph\":\"i\","
        "\"pid\":1,\"tid\":0,\"ts\":4.000,\"s\":\"t\"}\n"
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"seed\":1}}\n";
    EXPECT_EQ(got, want);
}

TEST(obs_export, escapes_names_and_string_args)
{
    obs::sink s;
    s.instant(obs::category::page, 0, 0, "quote\"back\\slash\nnl",
              {obs::text("url", std::string("a\tb\x01"
                                            "c"))});
    const std::string out = obs::to_chrome_trace(s);
    EXPECT_NE(out.find("quote\\\"back\\\\slash\\nnl"), std::string::npos);
    EXPECT_NE(out.find("a\\tb\\u0001c"), std::string::npos);
    // The export must still be valid JSON.
    EXPECT_NO_THROW(json::parse(out));
}

TEST(obs_export, simulated_scenario_parses_with_valid_schema)
{
    // A tiny pure-sim world: three labelled tasks on one thread, one of which
    // burns virtual time. Everything the simulator emits must round-trip
    // through our own JSON parser with the trace-event schema intact.
    sim::simulation s;
    obs::sink sink;
    s.set_trace_sink(&sink);
    const sim::thread_id t = s.create_thread("main");
    s.post(t, 1 * sim::ms, [&] { s.consume(2 * sim::ms); }, "busy");
    s.post(t, 2 * sim::ms, [] {}, "idle");
    s.post(t, 5 * sim::ms, [] {}, "late");
    s.run();

    const std::string out = obs::to_chrome_trace(sink);
    const json::value root = json::parse(out);
    ASSERT_TRUE(root.is_object());
    EXPECT_EQ(root.get_string("displayTimeUnit"), "ms");

    const json::array& events = root.get("traceEvents").as_array();
    std::size_t spans = 0;
    bool saw_thread_meta = false;
    for (const json::value& ev : events) {
        ASSERT_TRUE(ev.is_object());
        const std::string ph = ev.get_string("ph");
        EXPECT_EQ(ev.get("pid").as_number(), 1);
        if (ph == "M") {
            saw_thread_meta |= ev.get_string("name") == "thread_name";
            continue;
        }
        EXPECT_TRUE(ev.get("ts").is_number());
        EXPECT_TRUE(ev.get("tid").is_number());
        if (ph == "X") {
            ++spans;
            EXPECT_EQ(ev.get_string("cat"), "task");
            EXPECT_TRUE(ev.get("dur").is_number());
            EXPECT_TRUE(ev.get("args").get("id").is_number());
        } else {
            EXPECT_EQ(ph, "i");
            EXPECT_EQ(ev.get_string("s"), "t");
        }
    }
    EXPECT_TRUE(saw_thread_meta);
    EXPECT_EQ(spans, 3u);  // one 'X' span per executed task

    // The "busy" span's duration is its consumed virtual time: 2ms = 2000µs.
    bool found_busy = false;
    for (const json::value& ev : events) {
        if (ev.get_string("name") == "busy") {
            found_busy = true;
            EXPECT_DOUBLE_EQ(ev.get("ts").as_number(), 1000.0);
            EXPECT_DOUBLE_EQ(ev.get("dur").as_number(), 2000.0);
        }
    }
    EXPECT_TRUE(found_busy);
}

TEST(obs_metrics, counter_gauge_histogram_basics)
{
    obs::registry reg;
    reg.get_counter("a").inc();
    reg.get_counter("a").inc(4);
    EXPECT_EQ(reg.get_counter("a").value(), 5u);

    reg.get_gauge("g").set(2.5);
    EXPECT_DOUBLE_EQ(reg.get_gauge("g").value(), 2.5);

    obs::histogram& h = reg.get_histogram("h", {1, 2, 4});
    h.record(1);    // bucket 0 (inclusive upper edge)
    h.record(3);    // bucket 2
    h.record(100);  // +inf bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 104.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    ASSERT_EQ(h.bucket_counts().size(), 4u);
    EXPECT_EQ(h.bucket_counts()[0], 1u);
    EXPECT_EQ(h.bucket_counts()[1], 0u);
    EXPECT_EQ(h.bucket_counts()[2], 1u);
    EXPECT_EQ(h.bucket_counts()[3], 1u);

    // Same name returns the same instrument; the later bounds are ignored.
    EXPECT_EQ(&reg.get_histogram("h", {9}), &h);
}

TEST(obs_metrics, snapshot_serializes_name_ordered_and_omits_empty_sections)
{
    obs::registry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.to_json(), "{}");

    reg.get_counter("z.second").set(2);
    reg.get_counter("a.first").set(1);
    EXPECT_EQ(reg.to_json(), "{\"counters\":{\"a.first\":1,\"z.second\":2}}");

    reg.get_gauge("depth").set(3);
    obs::histogram& h = reg.get_histogram("win", {0, 1});
    h.record_n(1, 2);
    const std::string out = reg.to_json();
    EXPECT_EQ(out,
              "{\"counters\":{\"a.first\":1,\"z.second\":2},"
              "\"gauges\":{\"depth\":3},"
              "\"histograms\":{\"win\":{\"bounds\":[0,1],\"count\":2,"
              "\"counts\":[0,2,0],\"max\":1,\"sum\":2}}}");
    // And it parses back with our own reader.
    EXPECT_NO_THROW(json::parse(out));
}

TEST(obs_metrics, collect_sim_reports_execution_counters)
{
    sim::simulation s;
    const sim::thread_id t = s.create_thread("main");
    for (int i = 0; i < 4; ++i) s.post(t, i * sim::ms, [] {});
    s.run();

    obs::registry reg;
    obs::collect_sim(reg, s);
    EXPECT_EQ(reg.counters().at("sim.tasks_executed").value(), 4u);
    EXPECT_DOUBLE_EQ(reg.gauges().at("sim.threads").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.gauges().at("sim.pending_tasks").value(), 0.0);
}

}  // namespace
