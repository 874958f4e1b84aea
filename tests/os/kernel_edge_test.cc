/**
 * @file
 * Edge cases of the OS substrate: cross-kernel task round trips,
 * placement under load, zombie reaping, actuator policy composition,
 * and socket corner cases.
 */

#include <memory>

#include <gtest/gtest.h>

#include "os/kernel.h"
#include "sim/simulation.h"
#include "util/logging.h"

namespace pcon::os {
namespace {

using hw::ActivityVector;
using sim::msec;
using sim::sec;
using sim::Simulation;
using sim::usec;

hw::MachineConfig
edgeConfig(int chips = 1, int cores_per_chip = 2)
{
    hw::MachineConfig cfg;
    cfg.name = "edge";
    cfg.chips = chips;
    cfg.coresPerChip = cores_per_chip;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.chipMaintenanceW = 2.0;
    cfg.truth.coreBusyW = 5.0;
    return cfg;
}

const ActivityVector kSpin{1.0, 0.0, 0.0, 0.0};

std::shared_ptr<TaskLogic>
computeOnce(double cycles)
{
    return std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [=](Kernel &, Task &, const OpResult &) -> Op {
                return ComputeOp{kSpin, cycles};
            }});
}

TEST(KernelEdge, CrossKernelTaskRoundTrip)
{
    // A task on machine A sends to a server task on machine B over a
    // latency link; the context propagates across the boundary and
    // the reply returns (the dispatcher/server split of Section 3.4).
    Simulation sim;
    hw::Machine ma(sim, edgeConfig());
    hw::Machine mb(sim, edgeConfig());
    RequestContextManager requests;
    Kernel ka(ma, requests);
    Kernel kb(mb, requests);
    auto [ea, eb] = Kernel::connect(ka, kb, usec(300));
    RequestId req = requests.create("x", sim.now());

    RequestId server_saw = NoRequest;
    auto server = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [eb = eb](Kernel &, Task &, const OpResult &) -> Op {
                return RecvOp{eb};
            },
            [&, eb = eb](Kernel &, Task &self,
                         const OpResult &) -> Op {
                server_saw = self.context;
                return SendOp{eb, 64};
            }},
        true);
    kb.spawn(server, "remote-server");

    sim::SimTime replied_at = -1;
    RequestId reply_ctx = NoRequest;
    auto client = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [ea = ea](Kernel &, Task &, const OpResult &) -> Op {
                return SendOp{ea, 128};
            },
            [ea = ea](Kernel &, Task &, const OpResult &) -> Op {
                return RecvOp{ea};
            },
            [&](Kernel &k, Task &, const OpResult &r) -> Op {
                replied_at = k.simulation().now();
                reply_ctx = r.context;
                return ExitOp{};
            }});
    ka.spawn(client, "client", req);
    sim.run(sec(1));

    EXPECT_EQ(server_saw, req);
    EXPECT_EQ(reply_ctx, req);
    // Two link traversals at 300 us each.
    EXPECT_GE(replied_at, usec(600));
}

TEST(KernelEdge, PlacementFillsAllCoresOfLargeMachine)
{
    Simulation sim;
    hw::Machine m(sim, edgeConfig(2, 6));
    RequestContextManager requests;
    Kernel k(m, requests);
    for (int i = 0; i < 12; ++i)
        k.spawn(computeOnce(1e9),
                std::string("t").append(std::to_string(i)));
    sim.run(msec(1));
    for (int c = 0; c < 12; ++c)
        EXPECT_TRUE(m.isBusy(c)) << c;
    // Each core got exactly one task.
    for (int c = 0; c < 12; ++c)
        EXPECT_EQ(k.coreLoad(c), 1u) << c;
}

TEST(KernelEdge, SpreadPlacementUsesBothChipsForTwoTasks)
{
    Simulation sim;
    hw::Machine m(sim, edgeConfig(2, 6));
    RequestContextManager requests;
    Kernel k(m, requests);
    k.spawn(computeOnce(1e9), "a");
    k.spawn(computeOnce(1e9), "b");
    sim.run(msec(1));
    EXPECT_TRUE(m.isBusy(0));
    EXPECT_TRUE(m.isBusy(6)); // first core of the second chip
}

TEST(KernelEdge, DutyAndPStatePoliciesCompose)
{
    Simulation sim;
    hw::Machine m(sim, edgeConfig());
    RequestContextManager requests;
    Kernel k(m, requests);
    k.setDutyPolicy([](const Task &) { return 4; });
    k.setPStatePolicy([](const Task &) { return 1; });
    k.spawn(computeOnce(1e6), "t", NoRequest, 0);
    sim.run(usec(10));
    EXPECT_EQ(m.dutyLevel(0), 4);
    EXPECT_EQ(m.pstate(0), 1);
    // Effective rate = 1 GHz * 0.5 * 0.85.
    EXPECT_NEAR(m.workRateHz(0), 1e9 * 0.5 * 0.85, 1.0);
}

TEST(KernelEdge, ZombieChildIsReapableByLateWait)
{
    Simulation sim;
    hw::Machine m(sim, edgeConfig());
    RequestContextManager requests;
    Kernel k(m, requests);
    TaskId child_seen = NoTask;
    bool waited = false;
    auto parent = std::make_shared<ScriptedLogic>(
        std::vector<ScriptedLogic::Step>{
            [](Kernel &, Task &, const OpResult &) -> Op {
                return ForkOp{
                    std::make_shared<ScriptedLogic>(
                        std::vector<ScriptedLogic::Step>{
                            [](Kernel &, Task &,
                               const OpResult &) -> Op {
                                return ComputeOp{kSpin, 1e4};
                            }}),
                    "quick-child"};
            },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                child_seen = r.child;
                // Outlive the child before waiting: it exits and
                // lingers as a zombie.
                return ComputeOp{kSpin, 5e6};
            },
            [&](Kernel &, Task &, const OpResult &) -> Op {
                return WaitChildOp{child_seen};
            },
            [&](Kernel &, Task &, const OpResult &r) -> Op {
                waited = r.kind == OpResult::Kind::ChildExited;
                return ExitOp{};
            }});
    k.spawn(parent, "parent", NoRequest, 0);
    sim.run(sec(1));
    EXPECT_TRUE(waited);
    EXPECT_EQ(k.findTask(child_seen), nullptr); // reaped by the wait
}

TEST(KernelEdge, SendOnUnconnectedOrNegativeIsPanic)
{
    Simulation sim;
    hw::Machine m(sim, edgeConfig());
    RequestContextManager requests;
    Kernel k(m, requests);
    auto [a, b] = k.socketPair();
    (void)b;
    EXPECT_THROW(a->send(-1.0, NoRequest), util::PanicError);
}

TEST(KernelEdge, BindContextPanicsOnUnknownTask)
{
    Simulation sim;
    hw::Machine m(sim, edgeConfig());
    RequestContextManager requests;
    Kernel k(m, requests);
    EXPECT_THROW(k.bindContext(999, 1), util::PanicError);
}

TEST(KernelEdge, TimesliceRotatesThreeWays)
{
    // Three CPU-bound tasks pinned to one core make equal progress.
    Simulation sim;
    hw::Machine m(sim, edgeConfig());
    RequestContextManager requests;
    Kernel k(m, requests);
    TaskId ids[3];
    for (int i = 0; i < 3; ++i)
        ids[i] = k.spawn(computeOnce(30e6),
                         std::string("t").append(std::to_string(i)),
                         NoRequest, 0);
    // All three need 30 ms; with fair slicing nobody finishes before
    // ~85 ms and all finish by ~95 ms.
    sim.run(msec(84));
    for (TaskId id : ids)
        EXPECT_NE(k.findTask(id)->state, TaskState::Exited);
    sim.run(msec(95));
    for (TaskId id : ids)
        EXPECT_EQ(k.findTask(id)->state, TaskState::Exited);
}

TEST(KernelEdge, SamplingHonorsCustomCyclePeriod)
{
    KernelConfig cfg;
    cfg.samplingPeriodCycles = 250e3; // 0.25 ms at 1 GHz
    struct CountingHooks : KernelHooks
    {
        int fired = 0;
        void onSamplingInterrupt(int) override { ++fired; }
    } hooks;
    Simulation sim;
    hw::Machine m(sim, edgeConfig());
    RequestContextManager requests;
    Kernel k(m, requests, cfg);
    k.addHooks(&hooks);
    k.spawn(computeOnce(2e6), "t", NoRequest, 0); // 2 ms of work
    sim.run(msec(10));
    // 2 ms / 0.25 ms = 8 interrupts (within one of the boundary).
    EXPECT_GE(hooks.fired, 7);
    EXPECT_LE(hooks.fired, 9);
}

} // namespace
} // namespace pcon::os
