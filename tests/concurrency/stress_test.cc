/**
 * @file
 * Concurrency stress tests for the components migrated onto the
 * annotated primitives in util/sync.h (telemetry registry, logging,
 * event queue, span collector, fault injector). Each test hammers
 * one component from several std::threads and then checks exact
 * tallies, so a lost update is a deterministic failure — and under
 * the tsan preset (ctest wiring in .github/workflows/ci.yml) any
 * unlocked access is a hard error even when the tallies survive.
 *
 * Raw std::thread is deliberate here: the stress harness *is* the
 * thread owner. The concurrency-primitives lint rule only covers
 * src/, where components must stay passive.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "trace/span.h"
#include "util/logging.h"

namespace pcon {
namespace {

using sim::msec;

constexpr int kThreads = 4;
constexpr int kIters = 2000;

void
runThreads(const std::function<void(int)> &body)
{
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(body, t);
    for (std::thread &th : threads)
        th.join();
}

TEST(ConcurrencyStress, RegistryCountersGaugesHistograms)
{
    telemetry::Registry registry;
    // Pre-register so hot loops can hold references, as real
    // instrumentation does; concurrent re-registration of the same
    // name must return the same instrument.
    telemetry::Histogram &hist =
        registry.histogram("stress.hist", {1.0, 10.0, 100.0});
    registry.addCollector(
        [&registry] { registry.gauge("stress.pull").set(1.0); });

    runThreads([&registry, &hist](int t) {
        telemetry::Counter &shared =
            registry.counter("stress.shared");
        telemetry::Counter &mine =
            registry.counter("stress.t" + std::to_string(t));
        for (int i = 0; i < kIters; ++i) {
            shared.add(1);
            mine.add(1);
            registry.gauge("stress.gauge").add(1.0);
            hist.observe(static_cast<double>(i % 128));
            if (i % 256 == 0)
                registry.collect();
        }
    });

    EXPECT_EQ(registry.counter("stress.shared").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(
            registry.counter("stress.t" + std::to_string(t)).value(),
            static_cast<std::uint64_t>(kIters));
    EXPECT_DOUBLE_EQ(registry.gauge("stress.gauge").value(),
                     static_cast<double>(kThreads) * kIters);
    EXPECT_EQ(hist.count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(registry.gauge("stress.pull").value(), 1.0);
    // name-sorted iteration stays coherent during/after the storm
    EXPECT_EQ(registry.entries().size(), registry.size());
}

TEST(ConcurrencyStress, ShardedCounterReadDuringMergeIsMonotone)
{
    // The Counter's concurrent-read contract (class doc in
    // telemetry/registry.h): while writers hammer the counter, a
    // reader's successive value() reads must be non-decreasing and
    // include every published add; after the storm the total is
    // exact.
    telemetry::Registry registry;
    telemetry::Counter &counter =
        registry.counter("stress.sharded");
    std::atomic<std::uint64_t> added{0};
    std::atomic<bool> done{false};

    std::thread reader([&counter, &added, &done] {
        std::uint64_t prev = 0;
        while (!done.load()) {
            std::uint64_t floor = added.load();
            std::uint64_t seen = counter.value();
            EXPECT_GE(seen, prev);
            // Everything the writers finished (and published via
            // `added`) before this read started must be included.
            EXPECT_GE(seen, floor);
            prev = seen;
        }
        EXPECT_EQ(counter.value(), added.load());
    });

    runThreads([&counter, &added](int) {
        for (int i = 0; i < kIters; ++i) {
            counter.add(1);
            added.fetch_add(1);
        }
    });
    done.store(true);
    reader.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ConcurrencyStress, LoggingCountsAndThresholdFlips)
{
    util::resetLogCounts();
    util::setLogThreshold(util::LogLevel::Error);

    runThreads([](int t) {
        for (int i = 0; i < kIters; ++i) {
            // Debug/Info only: both stay below either threshold the
            // flipping thread installs, so stderr stays silent.
            util::logMessage(util::LogLevel::Debug,
                             "stress debug " + std::to_string(t));
            util::inform("stress info ", t, " ", i);
            if (t == 0 && i % 64 == 0)
                util::setLogThreshold(
                    i % 128 == 0 ? util::LogLevel::Error
                                 : util::LogLevel::Warn);
        }
    });

    util::LogCounts counts = util::logCounts();
    EXPECT_EQ(counts.debug,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(counts.info,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(counts.warn, 0u);
    EXPECT_EQ(counts.error, 0u);

    util::setLogThreshold(util::LogLevel::Warn);
    util::resetLogCounts();
}

TEST(ConcurrencyStress, EventQueueInsertCancelThenDeterministicDrain)
{
    sim::EventQueue queue;
    std::atomic<std::uint64_t> fired{0};
    std::vector<std::vector<sim::EventId>> ids(kThreads);

    runThreads([&queue, &fired, &ids](int t) {
        for (int i = 0; i < kIters; ++i) {
            sim::EventId id = queue.schedule(
                static_cast<sim::SimTime>(i % 97),
                [&fired] { fired.fetch_add(1); });
            ids[static_cast<std::size_t>(t)].push_back(id);
            // Cancel every other event this thread scheduled; a
            // second cancel of the same id must report false.
            if (i % 2 == 1) {
                EXPECT_TRUE(queue.cancel(id));
                EXPECT_FALSE(queue.cancel(id));
            }
            if (i % 128 == 0) {
                (void)queue.size();
                (void)queue.empty();
            }
        }
    });

    const std::uint64_t scheduled =
        static_cast<std::uint64_t>(kThreads) * kIters;
    const std::uint64_t live = scheduled - scheduled / 2;
    EXPECT_EQ(queue.size(), live);

    // Drain single-threaded: (time, sequence) order must hold no
    // matter which thread inserted each entry.
    sim::SimTime last = 0;
    std::uint64_t popped = 0;
    while (!queue.empty()) {
        auto [when, cb] = queue.pop();
        EXPECT_GE(when, last);
        last = when;
        cb();
        ++popped;
    }
    EXPECT_EQ(popped, live);
    EXPECT_EQ(fired.load(), live);
}

TEST(ConcurrencyStress, SpanCollectorOpenChargeClose)
{
    trace::SpanCollector collector;
    constexpr int kSpansPerThread = 400;

    runThreads([&collector](int t) {
        // Distinct request per thread: ids interleave globally but
        // each request's tree is internally consistent.
        os::RequestId request = static_cast<os::RequestId>(t + 1);
        trace::SpanId root =
            collector.open(request, t, "root", trace::SpanKind::Root,
                           trace::NoSpan, 0);
        for (int i = 0; i < kSpansPerThread; ++i) {
            trace::SpanId stage = collector.open(
                request, t, "stage", trace::SpanKind::Stage, root,
                static_cast<sim::SimTime>(i));
            collector.charge(stage, util::Joules(1.0), 10.0,
                             util::Cycles(100.0), 50.0);
            collector.addIoBytes(stage, 8.0);
            collector.close(stage,
                            static_cast<sim::SimTime>(i + 1));
            ASSERT_TRUE(collector.valid(stage));
        }
        collector.close(root,
                        static_cast<sim::SimTime>(kSpansPerThread));
    });

    EXPECT_EQ(collector.size(),
              static_cast<std::size_t>(kThreads) *
                  (kSpansPerThread + 1));
    EXPECT_EQ(collector.openCount(), 0u);
    for (int t = 0; t < kThreads; ++t) {
        os::RequestId request = static_cast<os::RequestId>(t + 1);
        EXPECT_NE(collector.rootOf(request), trace::NoSpan);
        EXPECT_EQ(collector.requestSpans(request).size(),
                  static_cast<std::size_t>(kSpansPerThread) + 1);
        EXPECT_DOUBLE_EQ(
            collector.requestEnergyJ(request).value(),
            static_cast<double>(kSpansPerThread));
        // Every stage closed after the root opened: the critical
        // path must run root -> some stage.
        EXPECT_EQ(collector.criticalPath(request).size(), 2u);
    }
}

TEST(ConcurrencyStress, FaultInjectorCountsReadDuringInjection)
{
    sim::Simulation sim;
    hw::MachineConfig cfg;
    cfg.name = "stress";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 10.0;
    hw::Machine machine(sim, cfg);
    hw::PowerMeter meter(machine, hw::MeterScope::Machine,
                         {msec(1), msec(1)});

    fault::FaultPlan plan;
    plan.meter.dropProbability = 1.0;
    fault::FaultInjector injector(sim, plan);
    injector.attachMeter(meter);
    meter.start();

    // Readers snapshot the tallies while the simulation thread keeps
    // injecting; the snapshot must be monotone per reader (counts
    // only ever grow).
    std::atomic<bool> done{false};
    runThreads([&](int t) {
        if (t == 0) {
            sim.run(msec(50));
            done.store(true);
            return;
        }
        std::uint64_t seen = 0;
        while (!done.load()) {
            fault::FaultCounts counts = injector.counts();
            EXPECT_GE(counts.meterDropped, seen);
            EXPECT_EQ(counts.total(), counts.meterDropped);
            seen = counts.meterDropped;
        }
    });
    EXPECT_GE(injector.counts().meterDropped, 40u);
}

} // namespace
} // namespace pcon
