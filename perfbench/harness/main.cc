/**
 * @file
 * pcon_perfbench: the measuring program behind perfbench/run.py.
 *
 *   pcon_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--spans-out <file>]
 *
 * Workloads (perfbench/README.md says why each exists):
 *   webwork_accounting  SandyBridge + WeBWorK at peak (closed loop,
 *                       2 x cores outstanding), Approach 2, no tracer,
 *                       250 simulated s per world.
 *   webwork_traced      the same world plus SpanTracer::traceAll() and
 *                       an obs::EnergyIndex queried once per simulated
 *                       second, 100 simulated s per world.
 *   fig08_sweep         the Figure 8 matrix: 3 machines x 6 apps x
 *                       {peak, half} x 3 approaches = 108 worlds.
 *
 * --trace 0 repeats whole episodes (one world, or one 108-world sweep)
 * while they fit in --seconds of host time (at least one), timing each
 * episode and each simulated second. --trace 1 runs one episode through the
 * product wiring (untimed layers) and one through a bench-side wiring
 * whose layer entry points are timed (ledger.h), and reports the
 * per-layer ledger. Either way the program prints one JSON object on
 * its last stdout line; run.py turns it into metrics and checks it
 * against the pinned digests.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/container_manager.h"
#include "core/recalibration.h"
#include "hw/config.h"
#include "hw/machine.h"
#include "hw/power_meter.h"
#include "ledger.h"
#include "obs/energy_index.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "trace/span.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;
using perfbench::Layer;
using perfbench::Ledger;
using perfbench::nowNs;

/** WeBWorK app and client seed at --seed 0 (bench_webwork_trace's). */
constexpr std::uint64_t kWebworkSeed = 7;
/** bench_fig08_validation's app seed; its clients keep seed 7. */
constexpr std::uint64_t kFig08AppSeed = 81;
constexpr int kSetupReps = 5;
constexpr int kAccountingSimS = 250;
constexpr int kTracedSimS = 100;
constexpr std::size_t kTopN = 10;
constexpr std::size_t kSpanDumpCap = 20000;

/**
 * Of this many steps, a traced episode times one whole and the layer
 * calls of another (ledger.h): rarely enough that the instrumentation
 * stays a small share of the run (about 2%), and often enough that the
 * rare expensive steps — request completions under the tracer
 * (≈16k per episode), refits (≈14k per sweep) — are each timed whole
 * about a thousand times or more.
 */
std::uint32_t
sampleEvery(const std::string &workload)
{
    if (workload == "webwork_accounting")
        return 64;
    return workload == "webwork_traced" ? 8 : 16;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
};

double
sinceS(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- JSON output ----------------------------------------------------

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
str(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
arr(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            out += ',';
        out += num(v[i]);
    }
    return out + "]";
}

/** Ordered JSON object; values are already-encoded JSON. */
class Obj
{
  public:
    Obj &add(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += str(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    std::string dump() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
arr(const std::vector<Obj> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            out += ',';
        out += v[i].dump();
    }
    return out + "]";
}

// --- simulated results ------------------------------------------------

/** What every episode must reproduce exactly (no host quantities). */
struct Digest
{
    std::uint64_t events = 0;
    std::uint64_t requests = 0;
    double energyJ = 0;
    std::uint64_t spans = 0;

    Obj json() const
    {
        Obj o;
        o.add("events", num(events)).add("requests", num(requests));
        o.add("energy_j", num(energyJ)).add("spans", num(spans));
        return o;
    }
};

/** Completed requests whose span energy misses the container ledger. */
std::uint64_t
spanLedgerMismatches(const trace::SpanCollector &spans,
                     const core::ContainerManager &manager)
{
    std::map<os::RequestId, double> span_j;
    for (const trace::Span &s : spans.spans())
        span_j[s.request] += s.energyJ.value();
    std::uint64_t bad = 0;
    for (const core::RequestRecord &r : manager.records())
        if (std::abs(span_j[r.id] - r.totalEnergyJ().value()) > 1e-6)
            ++bad;
    return bad;
}

// --- set-up -----------------------------------------------------------

/** One platform's Figure 8 inputs (bench_fig08_validation's). */
struct MachineSetup
{
    hw::MachineConfig cfg;
    core::LinearPowerModel model1; // Approach 1
    core::LinearPowerModel model2; // Approaches 2 and 3
    std::vector<core::CalibrationSample> offlineActive;
    double baselineW = 0;          // Approach 3 meter idle reading
};

struct Setup
{
    std::vector<MachineSetup> machines;
    std::vector<double> setupS;
    std::vector<double> calibrateMs;
};

/**
 * Calibrate (unmemoized, so every repetition pays the real cost) and,
 * for Figure 8, measure each Approach 3 meter's idle baseline.
 */
Setup
prepare(const std::string &workload)
{
    std::vector<hw::MachineConfig> cfgs = {hw::sandyBridgeConfig()};
    if (workload == "fig08_sweep")
        cfgs = {hw::woodcrestConfig(), hw::westmereConfig(),
                hw::sandyBridgeConfig()};
    Setup out;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::vector<MachineSetup> machines;
        double calibrate_ns = 0;
        std::int64_t t0 = nowNs();
        for (const hw::MachineConfig &cfg : cfgs) {
            std::int64_t c0 = nowNs();
            core::Calibrator calibrator = wl::calibrateMachine(cfg);
            MachineSetup m{cfg,
                           calibrator.fit(core::ModelKind::CoreEventsOnly),
                           calibrator.fit(core::ModelKind::WithChipShare),
                           {}, 0};
            calibrate_ns += static_cast<double>(nowNs() - c0);
            if (workload == "fig08_sweep") {
                m.offlineActive =
                    wl::toActiveSamples(calibrator, m.model2.idleW());
                m.baselineW = wl::measureIdleBaselineW(
                    cfg, cfg.hasOnChipMeter ? hw::MeterScope::Package
                                            : hw::MeterScope::Machine);
            }
            machines.push_back(std::move(m));
        }
        out.setupS.push_back(sinceS(t0));
        out.calibrateMs.push_back(calibrate_ns / 1e6);
        out.machines = std::move(machines);
    }
    return out;
}

// --- bench-side world wiring (per-layer trace) --------------------------

/**
 * wl::ServerWorld rebuilt from the public constructors, with the
 * ContainerManager registered through a timing decorator and every
 * counter read counted by an identity fault hook. The digest check
 * proves this wiring simulates exactly what ServerWorld does.
 */
struct BenchWorld
{
    BenchWorld(const hw::MachineConfig &cfg,
               std::shared_ptr<core::LinearPowerModel> model_in,
               const core::ContainerManagerConfig &manager_cfg,
               Ledger &ledger)
        : machine(sim, cfg), kernel(machine, requests),
          model(std::move(model_in)), manager(kernel, model, manager_cfg),
          managerHooks(manager, ledger, Layer::CoreHooks),
          wattsup(machine, hw::MeterScope::Machine, cfg.wattsupMeter)
    {
        kernel.addHooks(&managerHooks);
        if (cfg.hasOnChipMeter)
            onChip.emplace(machine, hw::MeterScope::Package,
                           cfg.onChipMeter);
        machine.setCounterFaultHook(
            [this](int, hw::CounterSnapshot &) { ++counterReads; });
    }

    BenchWorld(const BenchWorld &) = delete;
    BenchWorld &operator=(const BenchWorld &) = delete;

    /** ServerWorld::attachRecalibration with a precomputed baseline. */
    void attachRecalibration(std::vector<core::CalibrationSample> offline,
                             double baseline_w)
    {
        hw::PowerMeter &meter = onChip ? *onChip : wattsup;
        core::RecalibratorConfig cfg;
        cfg.baselineW = baseline_w;
        if (!onChip) {
            cfg.maxDelaySamples = 8;
            cfg.refitEvery = sim::msec(500);
            cfg.minOnlineSamples = 6;
            cfg.alignEvery = sim::sec(2);
        }
        sampler = std::make_unique<core::ModelPowerSampler>(
            kernel, model, meter.period());
        recal = std::make_unique<core::OnlineRecalibrator>(
            *sampler, meter, model, std::move(offline), cfg);
        // Subscribed after the recalibrator, so it runs last.
        meter.subscribe([this](const hw::PowerMeter::Sample &) {
            meterFired = true;
            ++meterSamples;
        });
        sampler->start();
        meter.start();
        recal->start();
    }

    void beginWindow()
    {
        windowStart = sim.now();
        windowEnergyJ = machine.machineEnergyJ();
        windowAccountedJ = manager.accountedEnergyJ();
    }

    /** ServerWorld::validationError, same arithmetic. */
    double validationError()
    {
        double span_s = sim::toSeconds(sim.now() - windowStart);
        double measured =
            (machine.machineEnergyJ() - windowEnergyJ).value() / span_s -
            machine.config().truth.machineIdleW;
        double accounted =
            (manager.accountedEnergyJ() - windowAccountedJ).value() / span_s;
        return std::abs(accounted - measured) / measured;
    }

    // Declaration order mirrors wl::ServerWorld: construction and
    // destruction order matter to the simulation.
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;
    std::shared_ptr<core::LinearPowerModel> model;
    core::ContainerManager manager;
    perfbench::TimedHooks managerHooks;
    hw::PowerMeter wattsup;
    std::optional<hw::PowerMeter> onChip;
    std::unique_ptr<core::ModelPowerSampler> sampler;
    std::unique_ptr<core::OnlineRecalibrator> recal;
    std::uint64_t counterReads = 0;
    std::uint64_t meterSamples = 0;
    bool meterFired = false;
    sim::SimTime windowStart = 0;
    util::Joules windowEnergyJ{0};
    util::Joules windowAccountedJ{0};
};

/** Per-layer totals summed over the traced worlds of one run. */
struct TraceTotals
{
    explicit TraceTotals(std::uint32_t sample_every)
        : ledger(kSpanDumpCap), stepper(ledger, sample_every)
    {
        ledger.calibrate();
    }

    Ledger ledger;
    perfbench::Stepper stepper;
    std::array<std::uint64_t, static_cast<std::size_t>(perfbench::Hook::Count)>
        coreCalls{};
    std::uint64_t traceCalls = 0;
    std::uint64_t counterReads = 0;
    std::uint64_t meterSamples = 0;
    std::uint64_t requests = 0;
    std::uint64_t spans = 0;
    std::uint64_t refits = 0;
    std::uint64_t refitsSkipped = 0;
    std::uint64_t refitsRejected = 0;
    std::uint64_t lowConf = 0;
    std::uint64_t worldsWithoutRefit = 0;

    void absorb(const BenchWorld &w)
    {
        for (std::size_t h = 0; h < coreCalls.size(); ++h)
            coreCalls[h] +=
                w.managerHooks.calls(static_cast<perfbench::Hook>(h));
        counterReads += w.counterReads;
        meterSamples += w.meterSamples;
        if (w.recal) {
            refits += w.recal->refits();
            refitsSkipped += w.recal->refitsSkipped();
            refitsRejected += w.recal->refitsRejected();
            lowConf += w.recal->lowConfidenceAlignments();
            if (w.recal->refits() == 0)
                ++worldsWithoutRefit;
        }
    }

    perfbench::Probes probes(BenchWorld &w, const wl::LoadClient &client)
    {
        perfbench::Probes p;
        p.recal = w.recal.get();
        p.sampler = w.sampler.get();
        p.client = &client;
        p.meterFired = &w.meterFired;
        return p;
    }
};

// --- WeBWorK ----------------------------------------------------------

struct Episode
{
    double hostS = 0;
    double simS = 0;
    Digest digest;
    /** WeBWorK: Approach 2 validation error after the first second. */
    double validationError = 0;
    /** Host ms of every simulated second (fig08: of every world). */
    std::vector<double> slicesMs;
    std::uint64_t spanMismatches = 0;
    std::vector<Obj> worlds; // Figure 8 only
};

/** The product wiring: wl::ServerWorld, timed per simulated second. */
Episode
webworkEpisode(const core::LinearPowerModel &model, bool spans_on,
               std::uint64_t wseed, int sim_s)
{
    Episode ep;
    std::int64_t t0 = nowNs();
    wl::ServerWorld world(hw::sandyBridgeConfig(),
                          std::make_shared<core::LinearPowerModel>(model));
    trace::SpanCollector spans;
    std::optional<trace::SpanTracer> tracer;
    obs::EnergyIndex index;
    if (spans_on) {
        tracer.emplace(world.kernel(), world.manager(), spans, 0);
        tracer->traceAll();
        world.kernel().addHooks(&*tracer);
        index.attach(spans);
    }
    wl::WeBWorKApp app(wseed);
    app.deploy(world.kernel());
    wl::LoadClient client(app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              app, world.kernel(), 1.0, wseed));
    client.start();
    std::int64_t t = nowNs();
    for (int s = 0; s < sim_s; ++s) {
        if (s == 1)
            world.beginWindow();
        world.run(sim::sec(1));
        if (spans_on && index.topRequests(kTopN).empty())
            throw std::runtime_error("topRequests returned nothing");
        std::int64_t e = nowNs();
        ep.slicesMs.push_back(static_cast<double>(e - t) / 1e6);
        t = e;
    }
    ep.hostS = sinceS(t0);
    ep.simS = sim::toSeconds(world.sim().now());
    ep.validationError = world.validationError();
    ep.digest = {world.sim().eventsExecuted(), client.completed(),
                 world.manager().accountedEnergyJ().value(), spans.size()};
    if (spans_on)
        ep.spanMismatches = spanLedgerMismatches(spans, world.manager());
    return ep;
}

/** The same episode on BenchWorld, every layer entry point timed. */
Episode
tracedWebworkEpisode(const core::LinearPowerModel &model, bool spans_on,
                     std::uint64_t wseed, int sim_s, TraceTotals &tt)
{
    Episode ep;
    Ledger &ledger = tt.ledger;
    std::uint64_t sentinels0 = tt.stepper.sentinels();
    std::int64_t t0 = nowNs();
    ledger.begin(); // world wiring
    BenchWorld world(hw::sandyBridgeConfig(),
                     std::make_shared<core::LinearPowerModel>(model),
                     core::ContainerManagerConfig{}, ledger);
    trace::SpanCollector spans;
    std::optional<trace::SpanTracer> tracer;
    std::optional<perfbench::TimedHooks> tracerHooks;
    obs::EnergyIndex index;
    perfbench::TimedSpanObserver indexFeed(index, ledger);
    if (spans_on) {
        tracer.emplace(world.kernel, world.manager, spans, 0);
        tracer->traceAll();
        tracerHooks.emplace(*tracer, ledger, Layer::TraceHooks);
        world.kernel.addHooks(&*tracerHooks);
        index.attach(spans);
        spans.setObserver(&indexFeed);
    }
    wl::WeBWorKApp app(wseed);
    app.deploy(world.kernel);
    wl::LoadClient client(app, world.kernel,
                          wl::LoadClient::forUtilization(
                              app, world.kernel, 1.0, wseed));
    client.start();
    ledger.end(Layer::Engine);
    perfbench::Probes probes = tt.probes(world, client);
    for (int s = 1; s <= sim_s; ++s) {
        if (s == 2)
            world.beginWindow();
        tt.stepper.runUntil(world.sim, sim::sec(s), probes);
        if (spans_on) {
            ledger.begin();
            bool empty = index.topRequests(kTopN).empty();
            ledger.end(Layer::ObsQuery);
            if (empty)
                throw std::runtime_error("topRequests returned nothing");
        }
    }
    ep.hostS = sinceS(t0);
    ep.simS = sim::toSeconds(world.sim.now());
    ep.validationError = world.validationError();
    ep.digest = {world.sim.eventsExecuted() -
                     (tt.stepper.sentinels() - sentinels0),
                 client.completed(),
                 world.manager.accountedEnergyJ().value(), spans.size()};
    if (spans_on) {
        ep.spanMismatches = spanLedgerMismatches(spans, world.manager);
        tt.traceCalls += tracerHooks->totalCalls();
    }
    tt.absorb(world);
    tt.requests += client.completed();
    tt.spans += spans.size();
    return ep;
}

// --- Figure 8 -----------------------------------------------------------

struct Fig08Cell
{
    std::size_t machine;
    std::string app;
    double utilization;
    int approach;
};

/** The 108 worlds in bench_fig08_validation's (and the CSV's) order. */
std::vector<Fig08Cell>
fig08Matrix()
{
    std::vector<Fig08Cell> cells;
    for (std::size_t m = 0; m < 3; ++m)
        for (const std::string &app : wl::allWorkloadNames())
            for (double util : {1.0, 0.5})
                for (int approach : {1, 2, 3})
                    cells.push_back({m, app, util, approach});
    return cells;
}

/** Execution order of the matrix: a seeded shuffle. */
std::vector<std::size_t>
fig08Order(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    sim::Rng rng(seed);
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(order[i], order[static_cast<std::size_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(i)))]);
    return order;
}

struct WorldResult
{
    Digest digest;
    double error = 0;
    double simS = 0;
    std::uint64_t refits = 0;
};

/** Warm-up and window lengths of bench_fig08_validation. */
std::pair<int, int>
fig08Phases(const MachineSetup &setup, int approach)
{
    bool slow_meter = approach == 3 && !setup.cfg.hasOnChipMeter;
    return slow_meter ? std::pair{30, 20} : std::pair{3, 10};
}

core::ContainerManagerConfig
fig08ManagerCfg(int approach)
{
    core::ContainerManagerConfig cfg;
    cfg.useChipShare = approach >= 2;
    return cfg;
}

WorldResult
fig08World(const MachineSetup &setup, const Fig08Cell &cell,
           std::vector<double> &slices_ms)
{
    WorldResult r;
    auto model = std::make_shared<core::LinearPowerModel>(
        cell.approach == 1 ? setup.model1 : setup.model2);
    wl::ServerWorld world(setup.cfg, model, fig08ManagerCfg(cell.approach));
    if (cell.approach == 3) {
        core::RecalibratorConfig rc;
        rc.baselineW = setup.baselineW;
        world.attachRecalibration(setup.offlineActive, rc);
    }
    auto app = wl::makeApp(cell.app, kFig08AppSeed);
    app->deploy(world.kernel());
    wl::LoadClient client(*app, world.kernel(),
                          wl::LoadClient::forUtilization(
                              *app, world.kernel(), cell.utilization));
    client.start();
    auto [warm, window] = fig08Phases(setup, cell.approach);
    std::int64_t t = nowNs();
    for (int s = 0; s < warm + window; ++s) {
        if (s == warm)
            world.beginWindow();
        world.run(sim::sec(1));
        std::int64_t e = nowNs();
        slices_ms.push_back(static_cast<double>(e - t) / 1e6);
        t = e;
    }
    client.stop();
    r.error = world.validationError();
    r.simS = sim::toSeconds(world.sim().now());
    r.digest = {world.sim().eventsExecuted(), client.completed(),
                world.manager().accountedEnergyJ().value(), 0};
    if (world.recalibrator() != nullptr)
        r.refits = world.recalibrator()->refits();
    return r;
}

WorldResult
tracedFig08World(const MachineSetup &setup, const Fig08Cell &cell,
                 TraceTotals &tt)
{
    WorldResult r;
    Ledger &ledger = tt.ledger;
    std::uint64_t sentinels0 = tt.stepper.sentinels();
    ledger.begin(); // world wiring
    auto model = std::make_shared<core::LinearPowerModel>(
        cell.approach == 1 ? setup.model1 : setup.model2);
    BenchWorld world(setup.cfg, model, fig08ManagerCfg(cell.approach),
                     ledger);
    if (cell.approach == 3)
        world.attachRecalibration(setup.offlineActive, setup.baselineW);
    auto app = wl::makeApp(cell.app, kFig08AppSeed);
    app->deploy(world.kernel);
    wl::LoadClient client(*app, world.kernel,
                          wl::LoadClient::forUtilization(
                              *app, world.kernel, cell.utilization));
    client.start();
    ledger.end(Layer::Engine);
    perfbench::Probes probes = tt.probes(world, client);
    auto [warm, window] = fig08Phases(setup, cell.approach);
    tt.stepper.runUntil(world.sim, sim::sec(warm), probes);
    world.beginWindow();
    tt.stepper.runUntil(world.sim, sim::sec(warm + window), probes);
    client.stop();
    r.error = world.validationError();
    r.simS = sim::toSeconds(world.sim.now());
    r.digest = {world.sim.eventsExecuted() -
                    (tt.stepper.sentinels() - sentinels0),
                client.completed(),
                world.manager.accountedEnergyJ().value(), 0};
    if (world.recal)
        r.refits = world.recal->refits();
    tt.absorb(world);
    tt.requests += client.completed();
    return r;
}

/**
 * One sweep in `order`. Results are reported in matrix order, and the
 * digest sums in matrix order, so it does not depend on the order run.
 */
Episode
fig08Sweep(const Setup &setup, const std::vector<std::size_t> &order,
           TraceTotals *tt)
{
    std::vector<Fig08Cell> cells = fig08Matrix();
    std::vector<WorldResult> results(cells.size());
    Episode ep;
    std::int64_t t0 = nowNs();
    for (std::size_t i : order) {
        const MachineSetup &m = setup.machines[cells[i].machine];
        results[i] = tt != nullptr ? tracedFig08World(m, cells[i], *tt)
                                   : fig08World(m, cells[i], ep.slicesMs);
    }
    ep.hostS = sinceS(t0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const WorldResult &r = results[i];
        const Fig08Cell &c = cells[i];
        ep.simS += r.simS;
        ep.digest.events += r.digest.events;
        ep.digest.requests += r.digest.requests;
        ep.digest.energyJ += r.digest.energyJ;
        Obj w;
        w.add("machine", str(setup.machines[c.machine].cfg.name));
        w.add("workload", str(c.app));
        w.add("load", str(c.utilization > 0.9 ? "peak" : "half"));
        w.add("approach", std::to_string(c.approach));
        w.add("validation_error", num(r.error));
        w.add("events", num(r.digest.events));
        w.add("refits", num(r.refits));
        ep.worlds.push_back(w);
    }
    return ep;
}

// --- reports ----------------------------------------------------------

Obj
episodeJson(const Episode &ep)
{
    Obj o;
    o.add("host_s", num(ep.hostS)).add("sim_s", num(ep.simS));
    o.add("digest", ep.digest.json().dump());
    o.add("span_mismatches", num(ep.spanMismatches));
    o.add("slices_ms", arr(ep.slicesMs));
    if (ep.worlds.empty())
        o.add("validation_error", num(ep.validationError));
    else
        o.add("worlds", arr(ep.worlds));
    return o;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Per-layer ledger of a traced episode. */
Obj
layersJson(const TraceTotals &tt, const Episode &traced,
           const Episode &untraced)
{
    using perfbench::Hook;
    const Ledger &l = tt.ledger;
    auto ns = [&](Layer layer) { return l.estimateNs(layer); };
    double req = std::max<double>(1.0, static_cast<double>(tt.requests));
    double events = static_cast<double>(traced.digest.events);
    auto per_req = [&](Hook h) {
        return num(static_cast<double>(
                       tt.coreCalls[static_cast<std::size_t>(h)]) /
                   req);
    };
    std::uint64_t core_calls = 0;
    for (std::uint64_t c : tt.coreCalls)
        core_calls += c;
    std::uint64_t attempts = tt.refits + tt.refitsSkipped + tt.refitsRejected;
    // Every layer but the harness is estimated; the harness is what no
    // estimate covers: probes between steps, clock reads, sentinels.
    double run_ns = traced.hostS * 1e9;
    double covered = 0;
    Obj self;
    for (std::size_t i = 0; i < perfbench::kLayers; ++i) {
        auto layer = static_cast<Layer>(i);
        if (layer == Layer::Harness)
            continue;
        self.add(perfbench::layerName(layer), num(ns(layer)));
        covered += ns(layer);
    }
    self.add(perfbench::layerName(Layer::Harness), num(run_ns - covered));

    Obj o;
    o.add("sim.events", num(traced.digest.events));
    o.add("sim.step_ns_p50", num(tt.stepper.stepNsQuantile(0.50)));
    o.add("sim.step_ns_p99", num(tt.stepper.stepNsQuantile(0.99)));
    o.add("sim.queue_depth_mean", num(tt.stepper.queueDepthMean()));
    o.add("sim.queue_depth_max",
          num(static_cast<std::uint64_t>(tt.stepper.queueDepthMax())));
    o.add("os.context_switches_per_req", per_req(Hook::ContextSwitch));
    o.add("os.rebinds_per_req", per_req(Hook::Rebind));
    o.add("os.sampling_interrupts_per_req",
          per_req(Hook::SamplingInterrupt));
    o.add("os.io_completions_per_req", per_req(Hook::IoComplete));
    o.add("os.forks_per_req", per_req(Hook::Fork));
    o.add("os.segments_per_req", per_req(Hook::SegmentReceived));
    o.add("hw.counter_reads_per_event",
          num(static_cast<double>(tt.counterReads) / std::max(1.0, events)));
    o.add("hw.meter_samples", num(tt.meterSamples));
    o.add("hw.meter_delivery_ns", num(ns(Layer::MeterDelivery)));
    o.add("core.hook_calls", num(core_calls));
    o.add("core.hook_ns", num(ns(Layer::CoreHooks)));
    o.add("core.hook_ns_per_call", num(l.sampledMeanNs(Layer::CoreHooks)));
    o.add("core.recal.refit_ns", num(ns(Layer::RecalRefit)));
    o.add("core.recal.refit_ns_p50", num(median(tt.stepper.refitStepNs())));
    o.add("core.recal.refit_attempts", num(attempts));
    o.add("core.recal.refit_accept_ratio",
          num(attempts == 0 ? 0.0
                            : static_cast<double>(tt.refits) /
                                  static_cast<double>(attempts)));
    o.add("core.recal.worlds_without_refit", num(tt.worldsWithoutRefit));
    o.add("core.recal.align_ns", num(ns(Layer::RecalAlign)));
    o.add("core.recal.align_low_conf", num(tt.lowConf));
    o.add("core.recal.sampler_ns", num(ns(Layer::RecalSampler)));
    o.add("trace.hook_calls", num(tt.traceCalls));
    o.add("trace.hook_ns", num(ns(Layer::TraceHooks)));
    o.add("trace.spans_per_req",
          num(static_cast<double>(tt.spans) / req));
    o.add("workloads.requests_completed", num(tt.requests));
    o.add("workloads.completion_step_ns", num(ns(Layer::Completion)));
    o.add("obs.index_ns", num(ns(Layer::ObsIndex)));
    o.add("obs.query_ns", num(ns(Layer::ObsQuery)));
    o.add("engine.self_ns", num(ns(Layer::Engine)));
    o.add("harness.self_ns", num(run_ns - covered));
    o.add("harness.span_ns", num(l.spanCostNs()));
    o.add("layers.sum_ratio", num(covered / run_ns));
    o.add("traced_run_s", num(traced.hostS));
    o.add("untraced_run_s", num(untraced.hostS));
    o.add("tracing_overhead_s", num(traced.hostS - untraced.hostS));
    o.add("sample_every",
          num(static_cast<std::uint64_t>(tt.stepper.sampleEvery())));
    o.add("self_ns", self.dump());
    o.add("spans_kept", num(static_cast<std::uint64_t>(l.log().size())));
    o.add("spans_dropped", num(l.dropped()));
    return o;
}

/** Chrome trace-event JSON of the kept spans (Perfetto loads it). */
void
writeSpans(const Ledger &ledger, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + path);
    std::int64_t base = ledger.log().empty() ? 0 : ledger.log()[0].start;
    for (const perfbench::SpanRecord &s : ledger.log())
        base = std::min(base, s.start);
    double us = ledger.nsPerStamp() / 1e3;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const perfbench::SpanRecord &s : ledger.log()) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u}}",
                     first ? "" : ",", perfbench::layerName(s.layer),
                     static_cast<double>(s.start - base) * us,
                     static_cast<double>(s.end - s.start) * us, s.id,
                     s.parent);
        first = false;
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

// --- command line -----------------------------------------------------

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--spans-out") {
            o.spansOut = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload ||
        (o.workload != "webwork_accounting" &&
         o.workload != "webwork_traced" && o.workload != "fig08_sweep"))
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    if (!(o.seconds >= 0))
        throw std::invalid_argument("--seconds must be >= 0");
    return o;
}

int
run(const Options &opt)
{
    bool fig08 = opt.workload == "fig08_sweep";
    bool spans_on = opt.workload == "webwork_traced";
    int sim_s = spans_on ? kTracedSimS : kAccountingSimS;
    std::uint64_t wseed = fig08 ? kFig08AppSeed : kWebworkSeed + opt.seed;

    Setup setup = prepare(opt.workload);
    const core::LinearPowerModel &ww_model = setup.machines.back().model2;
    std::vector<std::size_t> order =
        fig08Order(fig08Matrix().size(), opt.seed);

    Obj out;
    out.add("workload", str(opt.workload));
    out.add("seed", num(opt.seed));
    out.add("workload_seed", num(wseed));
    out.add("trace", opt.trace ? "1" : "0");
    out.add("setup_s", arr(setup.setupS));
    out.add("calibrate_ms", arr(setup.calibrateMs));

    std::vector<Obj> episodes;
    if (!opt.trace) {
        std::int64_t t0 = nowNs();
        double last_s = 0;
        // Whole episodes only: stop when another one like the last
        // would overrun the budget (the first always runs).
        do {
            Episode ep =
                fig08 ? fig08Sweep(setup, order, nullptr)
                      : webworkEpisode(ww_model, spans_on, wseed, sim_s);
            last_s = ep.hostS;
            episodes.push_back(episodeJson(ep));
        } while (sinceS(t0) + last_s <= opt.seconds);
        out.add("episodes", arr(episodes));
    } else {
        Episode untraced =
            fig08 ? fig08Sweep(setup, order, nullptr)
                  : webworkEpisode(ww_model, spans_on, wseed, sim_s);
        TraceTotals tt(sampleEvery(opt.workload));
        Episode traced =
            fig08 ? fig08Sweep(setup, order, &tt)
                  : tracedWebworkEpisode(ww_model, spans_on, wseed, sim_s, tt);
        episodes.push_back(episodeJson(untraced));
        episodes.push_back(episodeJson(traced));
        out.add("episodes", arr(episodes));
        out.add("layers", layersJson(tt, traced, untraced).dump());
        if (!opt.spansOut.empty())
            writeSpans(tt.ledger, opt.spansOut);
    }
    out.add("peak_rss_mb", num(peakRssMb()));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pcon_perfbench: %s\n", e.what());
        return 2;
    }
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pcon_perfbench: %s\n", e.what());
        return 1;
    }
}
