/**
 * @file
 * Randomized stress of the OS kernel: many tasks issuing random op
 * sequences (compute, sleep, socket ping-pong, fork/wait, disk/net
 * I/O). Invariants checked after the storm:
 *
 *  - the simulation drains (no deadlock, no livelock panic);
 *  - every finite task exits;
 *  - counters are monotone and non-halt <= elapsed per core;
 *  - all busy time is attributable (accounted energy is finite and
 *    non-negative; background + request containers cover it).
 */

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "core/container_manager.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace pcon::os {
namespace {

using hw::ActivityVector;

hw::MachineConfig
fuzzConfig(int chips, int cores_per_chip)
{
    hw::MachineConfig cfg;
    cfg.name = "fuzz";
    cfg.chips = chips;
    cfg.coresPerChip = cores_per_chip;
    cfg.freqGhz = 1.0;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.chipMaintenanceW = 3.0;
    cfg.truth.coreBusyW = 5.0;
    cfg.truth.insW = 1.0;
    cfg.truth.diskActiveW = 2.0;
    cfg.truth.netActiveW = 2.0;
    return cfg;
}

/** A task running `ops` random operations, then exiting. */
class FuzzLogic : public TaskLogic
{
  public:
    FuzzLogic(std::shared_ptr<sim::Rng> rng, Socket *ping,
              Socket *pong, int ops)
        : rng_(std::move(rng)), ping_(ping), pong_(pong),
          remaining_(ops)
    {}

    Op
    next(Kernel &kernel, Task &self, const OpResult &last) override
    {
        (void)kernel;
        (void)self;
        (void)last;
        if (remaining_-- <= 0)
            return ExitOp{};
        switch (rng_->uniformInt(0, 6)) {
          case 0:
          case 1:
            return ComputeOp{
                ActivityVector{rng_->uniform(0.2, 2.5),
                               rng_->uniform(0.0, 0.4),
                               rng_->uniform(0.0, 0.05),
                               rng_->uniform(0.0, 0.01)},
                rng_->uniform(1e4, 3e6)};
          case 2:
            return SleepOp{sim::usec(rng_->uniformInt(1, 2000))};
          case 3:
            if (ping_ != nullptr) {
                // Ping-pong with self-owned pair: send then recv.
                if (!awaiting_) {
                    awaiting_ = true;
                    return SendOp{ping_, rng_->uniform(16, 4096)};
                }
                awaiting_ = false;
                return RecvOp{pong_};
            }
            return ComputeOp{ActivityVector{1, 0, 0, 0}, 1e5};
          case 4:
            return IoOp{rng_->chance(0.5) ? hw::DeviceKind::Disk
                                          : hw::DeviceKind::Net,
                        rng_->uniform(1e3, 2e5)};
          case 5: {
            // Fork a small child and wait for it.
            auto child = std::make_shared<ScriptedLogic>(
                std::vector<ScriptedLogic::Step>{
                    [r = rng_](Kernel &, Task &,
                               const OpResult &) -> Op {
                        return ComputeOp{ActivityVector{1, 0, 0, 0},
                                         r->uniform(1e4, 5e5)};
                    }});
            if (!forked_) {
                forked_ = true;
                return ForkOp{child, "fuzz-child"};
            }
            forked_ = false;
            return WaitChildOp{last.child != NoTask ? last.child
                                                    : childId_};
          }
          default:
            return ComputeOp{ActivityVector{0.5, 0, 0, 0}, 5e4};
        }
    }

  private:
    std::shared_ptr<sim::Rng> rng_;
    Socket *ping_;
    Socket *pong_;
    int remaining_;
    bool awaiting_ = false;
    bool forked_ = false;
    TaskId childId_ = NoTask;
};

struct FuzzCase
{
    int chips;
    int coresPerChip;
    int tasks;
    std::uint64_t seed;
};

class SchedulerFuzzTest : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(SchedulerFuzzTest, StormDrainsWithInvariantsIntact)
{
    const FuzzCase &fc = GetParam();
    sim::Simulation sim;
    hw::Machine machine(sim, fuzzConfig(fc.chips, fc.coresPerChip));
    RequestContextManager requests;
    Kernel kernel(machine, requests);
    auto model = std::make_shared<core::LinearPowerModel>();
    model->setCoefficient(core::Metric::Core, 5.0);
    model->setCoefficient(core::Metric::Ins, 1.0);
    model->setCoefficient(core::Metric::ChipShare, 3.0);
    model->setCoefficient(core::Metric::Disk, 2.0);
    model->setCoefficient(core::Metric::Net, 2.0);
    core::ContainerManager manager(kernel, model, {});
    kernel.addHooks(&manager);

    // Fuzz under the invariant auditor so a storm that corrupts the
    // accounting panics at the violation, not 120 simulated seconds
    // later. The fuzz model is deliberately coarse (no flop/llc/mem
    // terms), so keep the end-of-run conservation comparison below
    // as the accuracy gate and widen the auditor's tolerance.
    pcon::audit::InvariantAuditorConfig audit_cfg;
    audit_cfg.everyEvents = 2048;
    audit_cfg.conservationRelTol = 0.30;
    pcon::audit::InvariantAuditor auditor(kernel, audit_cfg);
    auditor.watch(manager);

    auto rng = std::make_shared<sim::Rng>(fc.seed);
    std::vector<TaskId> ids;
    for (int i = 0; i < fc.tasks; ++i) {
        auto [a, b] = kernel.socketPair();
        RequestId req = rng->chance(0.7)
            ? requests.create("fuzz", sim.now())
            : NoRequest;
        ids.push_back(kernel.spawn(
            std::make_shared<FuzzLogic>(rng, a, b,
                                        40 + i % 25),
            "fuzz" + std::to_string(i), req));
    }

    // The storm must drain: every task has a finite op budget.
    sim.run(sim::sec(120));
    EXPECT_TRUE(sim.idle()) << "simulation failed to drain";
    for (TaskId id : ids) {
        Task *t = kernel.findTask(id);
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->state, TaskState::Exited) << t->name;
    }

    // Counter invariants.
    for (int c = 0; c < machine.totalCores(); ++c) {
        hw::CounterSnapshot s = machine.readCounters(c);
        EXPECT_GE(s.elapsedCycles, s.nonhaltCycles);
        EXPECT_GE(s.nonhaltCycles, 0.0);
        EXPECT_GE(s.instructions, 0.0);
    }

    // Accounting invariants: finite, non-negative, and consistent
    // with measured active energy (within the Eq. 3 approximation
    // plus untracked idle-transition slack).
    double accounted = manager.accountedEnergyJ().value();
    EXPECT_GE(accounted, 0.0);
    EXPECT_TRUE(std::isfinite(accounted));
    double measured_active = machine.machineEnergyJ().value() -
        machine.config().truth.machineIdleW *
            sim::toSeconds(sim.now());
    EXPECT_GT(measured_active, 0.0);
    EXPECT_NEAR(accounted, measured_active, measured_active * 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, SchedulerFuzzTest,
    ::testing::Values(FuzzCase{1, 2, 8, 101}, FuzzCase{1, 4, 16, 102},
                      FuzzCase{2, 2, 12, 103},
                      FuzzCase{2, 6, 30, 104},
                      FuzzCase{1, 4, 40, 105},
                      FuzzCase{2, 2, 5, 106},
                      FuzzCase{4, 4, 48, 107},
                      FuzzCase{1, 12, 36, 108},
                      FuzzCase{2, 6, 18, 109},
                      FuzzCase{1, 2, 30, 110}),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        const FuzzCase &c = info.param;
        return std::string("m")
            .append(std::to_string(c.chips))
            .append("x")
            .append(std::to_string(c.coresPerChip))
            .append("_t")
            .append(std::to_string(c.tasks))
            .append("_s")
            .append(std::to_string(c.seed));
    });

} // namespace
} // namespace pcon::os
