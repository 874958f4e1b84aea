/**
 * @file
 * Hot-path micro-benchmarks (BENCH_hotpath.json): the per-operation
 * cost of every structure the accounting fast path touches —
 * event-queue push/pop and cancel, Registry counter adds and
 * histogram observes, span charges, container-ledger maintenance
 * updates, and the full per-context-switch kernel hook chain. These
 * are the costs ROADMAP item 2's optimization PRs must drive down.
 *
 * Wall-clock entries feed the trajectory; the deterministic "count"
 * entries (simulated events per ledger update, events per context
 * switch) are what the CI bench-gate holds to its 5% threshold —
 * they are byte-reproducible, so any drift is a real change in how
 * much work the accounting path performs.
 */

#include <memory>
#include <vector>

#include "core/container_manager.h"
#include "core/power_model.h"
#include "os/kernel.h"
#include "pcon_bench.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "trace/span.h"
#include "workloads/experiment.h"

namespace {

using namespace pcon;

std::shared_ptr<core::LinearPowerModel>
makeModel()
{
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setIdleW(26.1);
    model->setCoefficient(core::Metric::Core, 8.0);
    model->setCoefficient(core::Metric::Ins, 1.5);
    model->setCoefficient(core::Metric::Cache, 70.0);
    model->setCoefficient(core::Metric::Mem, 205.0);
    model->setCoefficient(core::Metric::ChipShare, 5.6);
    return model;
}

/** Counts context switches so ns/switch has a denominator. */
struct SwitchCounter : os::KernelHooks
{
    std::uint64_t switches = 0;

    void
    onContextSwitch(int, os::Task *, os::Task *) override
    {
        ++switches;
    }
};

/** Two busy tasks on one core: every slice is a real switch. */
struct SwitchWorld
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<core::LinearPowerModel> model;
    core::ContainerManager manager;
    SwitchCounter counter;

    SwitchWorld()
        : machine(sim, hw::sandyBridgeConfig()),
          kernel(machine, requests),
          model(makeModel()),
          manager(kernel, model, {})
    {
        kernel.addHooks(&counter);
        for (int i = 0; i < 2; ++i) {
            os::RequestId req =
                requests.create("hotpath", sim.now());
            auto logic = std::make_shared<os::ScriptedLogic>(
                std::vector<os::ScriptedLogic::Step>{
                    [](os::Kernel &, os::Task &,
                       const os::OpResult &) -> os::Op {
                        return os::ComputeOp{
                            hw::ActivityVector{1.2, 0.1, 0.01,
                                               0.002},
                            1e5};
                    }},
                true);
            kernel.spawn(logic, i == 0 ? "ping" : "pong", req, 0);
        }
    }
};

} // namespace

int
main()
{
    bench::Suite suite("hotpath");

    suite.add("event_queue.schedule_pop", 200000,
              [](std::uint64_t iters) {
                  sim::EventQueue q;
                  for (std::uint64_t i = 0; i < iters; ++i)
                      q.schedule(static_cast<sim::SimTime>(
                                     (i * 7919) % 1000000),
                                 [] {});
                  while (!q.empty())
                      q.pop();
              });

    suite.add("event_queue.schedule_cancel", 200000,
              [](std::uint64_t iters) {
                  sim::EventQueue q;
                  std::vector<sim::EventId> ids;
                  ids.reserve(iters);
                  for (std::uint64_t i = 0; i < iters; ++i)
                      ids.push_back(q.schedule(
                          static_cast<sim::SimTime>(i), [] {}));
                  for (sim::EventId id : ids)
                      q.cancel(id);
              });

    // The hold model at the simulator's operating point: ~11 pending
    // events. Ten periodic events each re-schedule themselves 1-10 us
    // after firing; one timer is cancelled and re-armed 20 us ahead on
    // every op, as the kernel does with its slice and sampler timers,
    // so it never reaches the head.
    suite.add("event_queue.hold_depth11", 2000000,
              [](std::uint64_t iters) {
                  sim::EventQueue q;
                  for (sim::SimTime i = 0; i < 10; ++i)
                      q.schedule(i * 1000, [] {});
                  sim::EventId timer = q.schedule(20000, [] {});
                  for (std::uint64_t i = 0; i < iters; ++i) {
                      auto [when, cb] = q.pop();
                      cb();
                      q.schedule(when + 1000 *
                                     static_cast<sim::SimTime>(
                                         1 + (i * 7919) % 10),
                                 [] {});
                      q.cancel(timer);
                      timer = q.schedule(when + 20000, [] {});
                  }
              });

    {
        telemetry::Registry registry;
        telemetry::Counter &counter =
            registry.counter("hotpath.counter");
        suite.add("registry.counter_add", 2000000,
                  [&counter](std::uint64_t iters) {
                      for (std::uint64_t i = 0; i < iters; ++i)
                          counter.add();
                  });

        telemetry::Histogram &hist = registry.histogram(
            "hotpath.histogram",
            {50, 100, 200, 500, 1000, 2000, 5000, 10000});
        suite.add("registry.histogram_observe", 500000,
                  [&hist](std::uint64_t iters) {
                      for (std::uint64_t i = 0; i < iters; ++i)
                          hist.observe(static_cast<double>(
                              (i * 131) % 12000));
                  });
    }

    {
        trace::SpanCollector spans;
        trace::SpanId span = spans.open(
            os::RequestId(1), 0, "hot", trace::SpanKind::Root,
            trace::NoSpan, 0);
        suite.add("span.charge", 500000,
                  [&spans, span](std::uint64_t iters) {
                      for (std::uint64_t i = 0; i < iters; ++i)
                          spans.charge(span, util::Joules(1e-9),
                                       100.0, util::Cycles(310.0),
                                       150.0);
                  });
    }

    {
        // One busy task; every op advances simulated time a little
        // and runs a full ledger maintenance sample on core 0.
        wl::ServerWorld world(hw::sandyBridgeConfig(), makeModel());
        os::RequestId req =
            world.requests().create("ledger", world.sim().now());
        auto logic = std::make_shared<os::ScriptedLogic>(
            std::vector<os::ScriptedLogic::Step>{
                [](os::Kernel &, os::Task &,
                   const os::OpResult &) -> os::Op {
                    return os::ComputeOp{
                        hw::ActivityVector{1.5, 0.1, 0.02, 0.004},
                        1e15};
                }},
            true);
        world.kernel().spawn(logic, "subject", req, 0);
        world.run(sim::msec(1));
        sim::SimTime t = world.sim().now();
        suite.add("ledger.maintenance_update", 20000,
                  [&world, &t](std::uint64_t iters) {
                      for (std::uint64_t i = 0; i < iters; ++i) {
                          t += sim::usec(10);
                          world.sim().run(t);
                          world.manager().sampleNow(0);
                      }
                  });
        suite.aux("maintenance_ops",
                  static_cast<double>(
                      world.manager().maintenanceOps()));

        // Deterministic cost of one maintenance update: simulated
        // events per op over a fixed post-timing window (independent
        // of the warmup/repeat protocol — the workload is in steady
        // state, so the per-slice event count is exact).
        const std::uint64_t window = 1000;
        std::uint64_t before = world.sim().eventsExecuted();
        for (std::uint64_t i = 0; i < window; ++i) {
            t += sim::usec(10);
            world.sim().run(t);
            world.manager().sampleNow(0);
        }
        suite.addCount("ledger.sim_events_per_op", "events/op",
                       static_cast<double>(
                           world.sim().eventsExecuted() - before) /
                           static_cast<double>(window));
    }

    {
        // The full kernel hook chain under a forced-switch workload:
        // value is host ns per simulated context switch.
        SwitchWorld w;
        sim::SimTime t = w.sim.now();
        std::uint64_t switches_before = 0;
        perf::BenchEntry &entry = suite.add(
            "kernel.context_switch_hook", 2000,
            [&w, &t](std::uint64_t iters) {
                for (std::uint64_t i = 0; i < iters; ++i) {
                    t += sim::usec(200);
                    w.sim.run(t);
                }
            });
        // Rescale ns-per-outer-iteration to ns-per-switch with the
        // deterministic switch count of one repeat.
        std::uint64_t total = w.counter.switches;
        (void)switches_before;
        std::uint64_t total_reps =
            suite.options().warmupReps + suite.options().measuredReps;
        double switches_per_rep = static_cast<double>(total) /
            static_cast<double>(total_reps);
        double per_iter =
            switches_per_rep / static_cast<double>(entry.itersPerRep);
        if (per_iter > 0) {
            entry.minValue /= per_iter;
            entry.medianValue /= per_iter;
            entry.p99Value /= per_iter;
            entry.meanValue /= per_iter;
            entry.unit = "ns/switch";
        }
        suite.aux("switches_per_rep", switches_per_rep);

        // Deterministic event cost per context switch over a fixed
        // window: catches regressions that add event-machinery work
        // to the switch path even on a noisy host.
        const std::uint64_t window = 100;
        std::uint64_t events_before = w.sim.eventsExecuted();
        std::uint64_t switches_before2 = w.counter.switches;
        for (std::uint64_t i = 0; i < window; ++i) {
            t += sim::usec(200);
            w.sim.run(t);
        }
        std::uint64_t dswitch = w.counter.switches - switches_before2;
        if (dswitch > 0)
            suite.addCount(
                "kernel.sim_events_per_switch", "events/switch",
                static_cast<double>(w.sim.eventsExecuted() -
                                    events_before) /
                    static_cast<double>(dswitch));
    }

    suite.writeJson();
    return 0;
}
