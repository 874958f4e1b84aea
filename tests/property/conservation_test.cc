/**
 * @file
 * Property: on a machine whose ground truth is purely linear, a
 * container manager running an *exact* model must account nearly all
 * measured active energy, regardless of topology, workload shape, or
 * load level. This is the paper's Figure 8 validation as an invariant,
 * swept over randomized scenarios.
 */

#include <memory>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "core/container_manager.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace pcon::core {
namespace {

using hw::ActivityVector;
using hw::MachineConfig;
using os::ComputeOp;
using os::Op;
using os::OpResult;
using os::ScriptedLogic;
using os::SleepOp;
using os::Task;
using sim::msec;
using sim::sec;

struct Scenario
{
    int chips;
    int coresPerChip;
    int tasks;
    double meanBurstCycles;
    std::uint64_t seed;
};

MachineConfig
scenarioConfig(const Scenario &s)
{
    MachineConfig cfg;
    cfg.name = "prop";
    cfg.chips = s.chips;
    cfg.coresPerChip = s.coresPerChip;
    cfg.freqGhz = 2.0;
    cfg.truth.machineIdleW = 40.0;
    cfg.truth.packageIdleW = 2.0;
    cfg.truth.chipMaintenanceW = 5.0;
    cfg.truth.coreBusyW = 6.0;
    cfg.truth.insW = 2.0;
    cfg.truth.flopW = 1.5;
    cfg.truth.llcW = 60.0;
    cfg.truth.memW = 250.0;
    cfg.truth.nlCacheMemW = 0.0; // linear truth
    cfg.truth.diskActiveW = 3.0;
    cfg.truth.netActiveW = 4.0;
    return cfg;
}

std::shared_ptr<LinearPowerModel>
exactModel(const MachineConfig &cfg)
{
    auto model = std::make_shared<LinearPowerModel>();
    model->setIdleW(cfg.truth.machineIdleW);
    model->setCoefficient(Metric::Core, cfg.truth.coreBusyW);
    model->setCoefficient(Metric::Ins, cfg.truth.insW);
    model->setCoefficient(Metric::Float, cfg.truth.flopW);
    model->setCoefficient(Metric::Cache, cfg.truth.llcW);
    model->setCoefficient(Metric::Mem, cfg.truth.memW);
    model->setCoefficient(Metric::ChipShare,
                          cfg.truth.chipMaintenanceW);
    model->setCoefficient(Metric::Disk, cfg.truth.diskActiveW);
    model->setCoefficient(Metric::Net, cfg.truth.netActiveW);
    return model;
}

class ConservationTest : public ::testing::TestWithParam<Scenario>
{};

TEST_P(ConservationTest, AccountedMatchesMeasuredActiveEnergy)
{
    const Scenario &s = GetParam();
    MachineConfig cfg = scenarioConfig(s);
    sim::Simulation sim;
    hw::Machine machine(sim, cfg);
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    auto model = exactModel(cfg);
    ContainerManager manager(kernel, model, {});
    kernel.addHooks(&manager);

    // The full invariant suite rides along: any conservation,
    // monotonicity, or bounds violation fails the property sweep at
    // the audit cadence, not just at the end-of-run comparison.
    pcon::audit::InvariantAuditorConfig audit_cfg;
    audit_cfg.everyEvents = 1024;
    pcon::audit::InvariantAuditor auditor(kernel, audit_cfg);
    auditor.watch(manager);

    auto rng = std::make_shared<sim::Rng>(s.seed);
    for (int i = 0; i < s.tasks; ++i) {
        os::RequestId req = requests.create(
            std::string("r").append(std::to_string(i)), sim.now());
        // Random activity signature and compute/sleep rhythm.
        ActivityVector act{rng->uniform(0.5, 2.5),
                           rng->uniform(0.0, 0.5),
                           rng->uniform(0.0, 0.06),
                           rng->uniform(0.0, 0.012)};
        double burst = s.meanBurstCycles;
        auto logic = std::make_shared<ScriptedLogic>(
            std::vector<ScriptedLogic::Step>{
                [rng, act, burst](os::Kernel &, Task &,
                                  const OpResult &) -> Op {
                    return ComputeOp{
                        act, rng->uniform(0.3, 1.7) * burst};
                },
                [rng](os::Kernel &, Task &, const OpResult &) -> Op {
                    if (rng->chance(0.15))
                        return os::IoOp{hw::DeviceKind::Disk,
                                        rng->uniform(1e4, 5e5)};
                    return SleepOp{sim::usec(
                        rng->uniformInt(100, 4000))};
                }},
            true);
        kernel.spawn(logic, std::string("t").append(std::to_string(i)),
                     req);
    }

    sim.run(msec(200)); // settle
    double energy0 = machine.machineEnergyJ().value();
    double accounted0 = manager.accountedEnergyJ().value();
    sim::SimTime t0 = sim.now();
    sim.run(t0 + sec(3));
    double span_s = sim::toSeconds(sim.now() - t0);

    double measured_active =
        (machine.machineEnergyJ().value() - energy0) / span_s -
        cfg.truth.machineIdleW;
    double accounted =
        (manager.accountedEnergyJ().value() - accounted0) / span_s;
    ASSERT_GT(measured_active, 1.0);
    // Equation 3 is an approximation (stale sibling samples under
    // churn), so several percent of slack is inherent; everything
    // else must match.
    EXPECT_NEAR(accounted, measured_active, measured_active * 0.08)
        << "chips=" << s.chips << " cpc=" << s.coresPerChip
        << " tasks=" << s.tasks << " seed=" << s.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ConservationTest,
    ::testing::Values(
        Scenario{1, 2, 2, 4e6, 1}, Scenario{1, 2, 6, 2e6, 2},
        Scenario{1, 4, 4, 5e6, 3}, Scenario{1, 4, 10, 1e6, 4},
        Scenario{2, 2, 4, 4e6, 5}, Scenario{2, 2, 9, 2e6, 6},
        Scenario{2, 6, 12, 3e6, 7}, Scenario{2, 6, 20, 1.5e6, 8},
        Scenario{4, 2, 10, 2.5e6, 9}, Scenario{1, 8, 12, 2e6, 10}),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        const Scenario &s = info.param;
        return "chips" + std::to_string(s.chips) + "x" +
            std::to_string(s.coresPerChip) + "_tasks" +
            std::to_string(s.tasks) + "_seed" +
            std::to_string(s.seed);
    });

} // namespace
} // namespace pcon::core
