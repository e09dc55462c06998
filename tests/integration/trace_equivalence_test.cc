/**
 * @file
 * Whole-stack tracing contracts (DESIGN.md §5e):
 *
 *  - a traced fast-forward run records the same event stream as a
 *    traced --no-fast-forward run, modulo the synthesized "ff"
 *    idle-span slices;
 *  - tracing never perturbs results: every registered statistic is
 *    bit-identical with tracing on or off;
 *  - the exported Chrome JSON is strictly well-formed and its mode
 *    slices agree with the controller's transition counters.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/simulator.hh"

#include "common/minijson.hh"

namespace vsv
{
namespace
{

SimulationOptions
tracedOptions(const std::string &path, bool fast_forward,
              std::uint32_t cores = 1)
{
    SimulationOptions options = makeOptions("mcf", false, 20000, 20000);
    options.vsv = fsmVsvConfig();
    options.cores = cores;
    options.fastForward = fast_forward;
    options.trace.path = path;
    options.trace.intervalTicks = 5000;
    return options;
}

/** Core `core`'s events, minus the synthesized idle spans. */
std::vector<TraceEvent>
eventsExceptFastForward(const TraceSink &sink, std::uint16_t core)
{
    const std::uint16_t ff =
        TraceSink::categoryIndex(TraceCategory::FastForward);
    std::vector<TraceEvent> out;
    sink.visit([&](const TraceEvent &ev) {
        if (ev.cat != ff && ev.core == core)
            out.push_back(ev);
    });
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(TraceEquivalenceTest, FastForwardRecordsTheSameStream)
{
    // Two cores add the per-core interval scalars and one idle span
    // per core and jump.
    for (const std::uint32_t cores : {1u, 2u}) {
        SCOPED_TRACE("cores=" + std::to_string(cores));
        const std::string ff_path =
            testing::TempDir() + "vsv_trace_ff.json";
        const std::string slow_path =
            testing::TempDir() + "vsv_trace_slow.json";

        Simulator ff_sim(tracedOptions(ff_path, true, cores));
        const SimulationResult ff_result = ff_sim.run();
        Simulator slow_sim(tracedOptions(slow_path, false, cores));
        const SimulationResult slow_result = slow_sim.run();

        // The runs themselves must agree before the traces can.
        ASSERT_GT(ff_result.fastForwardedTicks, 0u);
        ASSERT_EQ(slow_result.fastForwardedTicks, 0u);
        ASSERT_EQ(ff_result.ticks, slow_result.ticks);
        ASSERT_EQ(ff_result.downTransitions,
                  slow_result.downTransitions);

        ASSERT_NE(ff_sim.trace(), nullptr);
        ASSERT_NE(slow_sim.trace(), nullptr);
        // A jump synthesizes each core's idle-span events core after
        // core, so with several cores only each core's own stream
        // keeps the per-tick order.
        for (std::uint16_t c = 0; c < cores; ++c) {
            SCOPED_TRACE("core " + std::to_string(c));
            const std::vector<TraceEvent> ff_events =
                eventsExceptFastForward(*ff_sim.trace(), c);
            const std::vector<TraceEvent> slow_events =
                eventsExceptFastForward(*slow_sim.trace(), c);

            ASSERT_EQ(ff_events.size(), slow_events.size());
            for (std::size_t i = 0; i < ff_events.size(); ++i) {
                ASSERT_EQ(ff_events[i].ts, slow_events[i].ts)
                    << "event " << i;
                ASSERT_EQ(ff_events[i].kind, slow_events[i].kind)
                    << "event " << i;
                ASSERT_EQ(ff_events[i].cat, slow_events[i].cat)
                    << "event " << i;
                ASSERT_EQ(ff_events[i].a, slow_events[i].a)
                    << "event " << i;
                ASSERT_EQ(ff_events[i].b, slow_events[i].b)
                    << "event " << i;
            }
        }

        // The interval sampler tracked each core's issue counters,
        // then the shared miss counter and the power series.
        std::vector<std::string> expected;
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::string prefix =
                cores == 1 ? "interval."
                           : "interval.core" + std::to_string(c) + ".";
            expected.push_back(prefix + "cpu.committed");
            expected.push_back(prefix + "cpu.issued");
        }
        expected.push_back("interval.mem.demandL2Misses");
        expected.push_back("interval.powerW");
        std::vector<std::string> series;
        const std::uint16_t interval_cat =
            TraceSink::categoryIndex(TraceCategory::Interval);
        ff_sim.trace()->visit([&](const TraceEvent &ev) {
            if (ev.cat != interval_cat)
                return;
            const std::string &name = ff_sim.trace()->internedString(
                static_cast<std::uint32_t>(ev.a));
            if (std::find(series.begin(), series.end(), name) ==
                series.end()) {
                series.push_back(name);
            }
        });
        EXPECT_EQ(series, expected);

        // The fast-forward run additionally recorded its idle spans,
        // one per core and jump, all of equal count.
        const std::uint16_t ff_cat =
            TraceSink::categoryIndex(TraceCategory::FastForward);
        std::vector<std::size_t> spans(cores);
        ff_sim.trace()->visit([&](const TraceEvent &ev) {
            if (ev.cat == ff_cat) {
                ASSERT_LT(ev.core, cores);
                ++spans[ev.core];
            }
        });
        EXPECT_GT(spans[0], 0u);
        for (std::uint32_t c = 1; c < cores; ++c)
            EXPECT_EQ(spans[c], spans[0]) << "core " << c;

        std::remove(ff_path.c_str());
        std::remove(slow_path.c_str());
    }
}

TEST(TraceEquivalenceTest, TracingDoesNotPerturbStats)
{
    const std::string path =
        testing::TempDir() + "vsv_trace_stats.json";

    SimulationOptions traced = tracedOptions(path, true);
    SimulationOptions untraced = traced;
    untraced.trace = TraceConfig{};

    Simulator traced_sim(traced);
    traced_sim.run();
    Simulator untraced_sim(untraced);
    untraced_sim.run();

    // Every registered scalar and distribution, bit for bit.
    std::ostringstream traced_stats;
    traced_sim.stats().dumpJson(traced_stats);
    std::ostringstream untraced_stats;
    untraced_sim.stats().dumpJson(untraced_stats);
    EXPECT_EQ(traced_stats.str(), untraced_stats.str());

    std::remove(path.c_str());
}

TEST(TraceEquivalenceTest, ExportedJsonMatchesTransitionCounters)
{
    const std::string path =
        testing::TempDir() + "vsv_trace_export.json";

    Simulator sim(tracedOptions(path, true));
    const SimulationResult result = sim.run();
    ASSERT_GT(result.downTransitions, 0u);

    const minijson::Value doc = minijson::parse(slurp(path));
    EXPECT_EQ(doc.at("displayTimeUnit").str(), "ns");

    std::uint64_t down_slices = 0;
    std::uint64_t up_slices = 0;
    for (const minijson::Value &ev : doc.at("traceEvents").array()) {
        ASSERT_TRUE(ev.isObject());
        const std::string &ph = ev.at("ph").str();
        if (ph == "M")
            continue;
        // Exported timestamps are relative to the measured window.
        ASSERT_GE(ev.at("ts").num(), 0.0);
        ASSERT_LE(ev.at("ts").num(),
                  static_cast<double>(result.ticks));
        if (ph != "X")
            continue;
        const std::string &name = ev.at("name").str();
        if (name == "downClockDist")
            ++down_slices;
        else if (name == "upClockDist")
            ++up_slices;
    }
    EXPECT_EQ(down_slices, result.downTransitions);
    EXPECT_EQ(up_slices, result.upTransitions);

    std::remove(path.c_str());
}

TEST(TraceEquivalenceTest, DisabledCategoriesLeaveNoEvents)
{
    const std::string path =
        testing::TempDir() + "vsv_trace_catmask.json";

    SimulationOptions options = tracedOptions(path, true);
    options.trace.categories = TraceSink::parseCategories("mode,clock");
    Simulator sim(options);
    sim.run();

    const std::uint16_t mode_cat =
        TraceSink::categoryIndex(TraceCategory::Mode);
    const std::uint16_t clock_cat =
        TraceSink::categoryIndex(TraceCategory::Clock);
    ASSERT_NE(sim.trace(), nullptr);
    ASSERT_GT(sim.trace()->eventCount(), 0u);
    sim.trace()->visit([&](const TraceEvent &ev) {
        ASSERT_TRUE(ev.cat == mode_cat || ev.cat == clock_cat);
    });

    std::remove(path.c_str());
}

} // namespace
} // namespace vsv
