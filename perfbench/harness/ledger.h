/**
 * @file
 * Host-time ledger for the benchmark's per-layer trace. Every number
 * here is measured from outside the program: the benchmark wraps the
 * public entry points of each layer (KernelHooks implementations, the
 * span observer, live queries, single simulation steps) in spans and
 * attributes each span's self time — its duration minus the time its
 * child spans cover — to one layer.
 *
 * Timing every step would cost more host time than many steps take,
 * so steps are sampled. Every step is counted and classified; a random
 * one in N is timed whole, and another one in N has each layer call
 * inside it timed instead. A layer's host time is estimated as its
 * mean sampled time times its count, and a step's self time as its
 * whole time minus the layer calls inside it. Spans are net of a
 * calibrated per-span instrumentation cost, so the estimates are the
 * program's own time; the part of a traced run no estimate covers —
 * probes between steps, clock reads, sentinels — is the harness's.
 */

#ifndef PCON_PERFBENCH_LEDGER_H
#define PCON_PERFBENCH_LEDGER_H

#include <array>
#include <cstdint>
#include <vector>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "core/recalibration.h"
#include "os/hooks.h"
#include "sim/simulation.h"
#include "trace/span.h"
#include "workloads/client.h"

namespace perfbench {

/** Host monotonic time in nanoseconds. */
std::int64_t nowNs();

/**
 * Raw host time stamp for spans: the TSC on x86-64 (a fraction of a
 * steady-clock read), nanoseconds elsewhere. Ledger::calibrate()
 * measures its rate.
 */
inline std::int64_t
stamp()
{
#if defined(__x86_64__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return nowNs();
#endif
}

/** Where a span's self time is charged. */
enum class Layer : std::uint8_t
{
    Engine,        ///< sim dispatch, kernel, hw sync and app logic
    CoreHooks,     ///< ContainerManager KernelHooks callbacks
    TraceHooks,    ///< SpanTracer KernelHooks callbacks
    ObsIndex,      ///< EnergyIndex span-observer updates
    ObsQuery,      ///< EnergyIndex::topRequests live queries
    RecalRefit,    ///< steps that ran an OnlineRecalibrator refit
    RecalAlign,    ///< steps that ran a delay alignment scan
    RecalSampler,  ///< steps that closed a ModelPowerSampler window
    MeterDelivery, ///< steps that delivered a PowerMeter sample
    Completion,    ///< steps in which a request completed
    Harness,       ///< benchmark bookkeeping outside any layer call
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Stable metric-style name of a layer ("core.hooks", ...). */
const char *layerName(Layer layer);

/** One closed span, kept in memory and written out after the run. */
struct SpanRecord
{
    std::int64_t start = 0; ///< stamp()
    std::int64_t end = 0;   ///< stamp()
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    Layer layer = Layer::Harness;
};

/**
 * Span stack plus per-layer self-time totals. Spans nest strictly; the
 * layer of a span may be decided when it closes (a simulation step is
 * classified by what it turned out to do). A span closed by
 * endSampleAt(), or while sampling(), is one sample of its layer's
 * calls (counted by tick()); any other span is timed exactly.
 */
class Ledger
{
  public:
    /** @param span_cap closed spans kept for the span dump. */
    explicit Ledger(std::size_t span_cap) : spanCap_(span_cap) {}

    /**
     * Measures the rate of stamp() and what one span costs in clock
     * reads and bookkeeping, so later spans are charged net of it.
     * Call before the first span.
     */
    void calibrate();

    void begin();
    /** Closes the innermost span; returns its net duration, ns. */
    double end(Layer layer) { return close(layer, stamp(), sampling_); }
    /** Closes the innermost span, ending at `t`, as a sample of `layer`. */
    double endSampleAt(Layer layer, std::int64_t t)
    {
        return close(layer, t, true);
    }

    /** While sampling, layer calls are timed (decorators check this). */
    bool sampling() const { return sampling_; }
    void setSampling(bool on) { sampling_ = on; }
    /** Net time of every outermost span closed while sampling, ns. */
    double sampledRootNs() const { return sampledRootNs_; }
    /**
     * Records a sample of the time layer calls took inside one call of
     * `parent` (a step); estimateNs(parent) excludes it.
     */
    void addNested(Layer parent, double ns);

    /** Counts one call (or step) of `layer`, timed or not. */
    void tick(Layer layer) { ++calls_[static_cast<std::size_t>(layer)]; }

    /** Calls of `layer` counted by tick(). */
    std::uint64_t calls(Layer layer) const
    {
        return calls_[static_cast<std::size_t>(layer)];
    }
    /** Mean net self time of the sampled spans of `layer`, ns. */
    double sampledMeanNs(Layer layer) const;
    /**
     * Estimated host time of `layer`, ns: its exactly timed spans plus,
     * for every counted call, sampledMeanNs() less the mean time of
     * the layer calls nested in it.
     */
    double estimateNs(Layer layer) const;

    /** Host cost of one span as its parent sees it, ns. */
    double spanCostNs() const { return outerNs_; }
    /** Nanoseconds per stamp() unit. */
    double nsPerStamp() const { return nsPerStamp_; }

    /** The first span_cap closed spans, in closing order (raw times). */
    const std::vector<SpanRecord> &log() const { return log_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    double close(Layer layer, std::int64_t t, bool sampled);

    struct Frame
    {
        std::int64_t start;
        double childNs; ///< net durations of the children
        std::uint32_t id;
        std::uint32_t descendants;
    };

    std::vector<Frame> stack_;
    std::array<double, kLayers> exactNs_{};
    std::array<double, kLayers> sampledNs_{};
    std::array<std::uint64_t, kLayers> sampledSpans_{};
    std::array<std::uint64_t, kLayers> calls_{};
    std::array<double, kLayers> nestedNs_{};
    std::array<std::uint64_t, kLayers> nestedSamples_{};
    double sampledRootNs_ = 0;
    bool sampling_ = false;
    double nsPerStamp_ = 1;
    /** Instrumentation inside an empty span's own timestamps, ns. */
    double innerNs_ = 0;
    /** Instrumentation a parent sees per child span, ns. */
    double outerNs_ = 0;
    std::vector<SpanRecord> log_;
    std::size_t spanCap_;
    std::uint64_t dropped_ = 0;
    std::uint32_t nextId_ = 1;
};

/** KernelHooks callbacks, in os/hooks.h order. */
enum class Hook : std::uint8_t
{
    ContextSwitch,
    Rebind,
    SamplingInterrupt,
    IoComplete,
    TaskExit,
    Fork,
    SegmentReceived,
    Actuation,
    Count
};

/**
 * Timing decorator: forwards every KernelHooks callback to `inner`,
 * counts calls per callback and ticks `layer`; while the ledger is
 * sampling, the call runs inside a span of `layer`. Register it in
 * place of `inner` so registration order is unchanged.
 */
class TimedHooks final : public pcon::os::KernelHooks
{
  public:
    TimedHooks(pcon::os::KernelHooks &inner, Ledger &ledger, Layer layer)
        : inner_(inner), ledger_(ledger), layer_(layer)
    {}

    TimedHooks(const TimedHooks &) = delete;
    TimedHooks &operator=(const TimedHooks &) = delete;

    std::uint64_t calls(Hook hook) const
    {
        return calls_[static_cast<std::size_t>(hook)];
    }
    std::uint64_t totalCalls() const;

    void onContextSwitch(int core, pcon::os::Task *prev,
                         pcon::os::Task *next) override;
    void onContextRebind(pcon::os::Task &task, pcon::os::RequestId old_ctx,
                         pcon::os::RequestId new_ctx) override;
    void onSamplingInterrupt(int core) override;
    void onIoComplete(pcon::hw::DeviceKind device,
                      pcon::os::RequestId context,
                      pcon::sim::SimTime busy_time, double bytes) override;
    void onTaskExit(pcon::os::Task &task) override;
    void onFork(pcon::os::Task &parent, pcon::os::Task &child) override;
    void onSegmentReceived(pcon::os::Task &task,
                           const pcon::os::Segment &segment) override;
    void onActuation(int core, int duty_level, int pstate) override;

  private:
    template <typename Fn>
    void timed(Hook hook, Fn &&fn)
    {
        ++calls_[static_cast<std::size_t>(hook)];
        ledger_.tick(layer_);
        if (!ledger_.sampling()) {
            fn();
            return;
        }
        ledger_.begin();
        fn();
        ledger_.end(layer_);
    }

    pcon::os::KernelHooks &inner_;
    Ledger &ledger_;
    Layer layer_;
    std::array<std::uint64_t, static_cast<std::size_t>(Hook::Count)>
        calls_{};
};

/** Timing decorator for a SpanObserver (the obs::EnergyIndex feed). */
class TimedSpanObserver final : public pcon::trace::SpanObserver
{
  public:
    TimedSpanObserver(pcon::trace::SpanObserver &inner, Ledger &ledger)
        : inner_(inner), ledger_(ledger)
    {}

    void onSpanOpened(const pcon::trace::Span &span) override;
    void onSpanClosed(const pcon::trace::Span &span) override;
    void onSpanCharged(const pcon::trace::Span &span,
                       pcon::util::Joules energy_delta,
                       double cpu_delta_ns) override;

  private:
    pcon::trace::SpanObserver &inner_;
    Ledger &ledger_;
};

/**
 * Observable effects a step is classified by. Null members are
 * absent from the world being driven.
 */
struct Probes
{
    const pcon::core::OnlineRecalibrator *recal = nullptr;
    const pcon::core::ModelPowerSampler *sampler = nullptr;
    const pcon::wl::LoadClient *client = nullptr;
    /** Set by a benchmark meter subscriber; cleared every step. */
    bool *meterFired = nullptr;
};

/**
 * Drives Simulations one step() at a time, classifying every step. Of
 * every `sample_every` steps, on average one is timed whole and one
 * has the layer calls inside it timed (ledger.h). runUntil(t) executes
 * exactly the events Simulation::run(t) would: a sentinel event at t
 * is re-armed until one fires with no other event before it, so events
 * scheduled at t after the first sentinel still run before the
 * boundary.
 */
class Stepper
{
  public:
    /** @param sample_every a power of two, at least 2. */
    Stepper(Ledger &ledger, std::uint32_t sample_every);

    /** Step `sim` through every event due at or before `until`. */
    void runUntil(pcon::sim::Simulation &sim, pcon::sim::SimTime until,
                  const Probes &probes);

    std::uint32_t sampleEvery() const { return mask_ + 1; }
    /** Sentinel steps so far (excluded from every other count). */
    std::uint64_t sentinels() const { return sentinels_; }
    /** Pending events before a sampled step: mean and maximum. */
    double queueDepthMean() const;
    std::size_t queueDepthMax() const { return depthMax_; }
    /**
     * Quantile of the net duration of a step timed whole, ns (log
     * buckets <= 6.25% wide).
     */
    double stepNsQuantile(double q) const;
    /** Net duration of every refit step timed whole, ns. */
    const std::vector<double> &refitStepNs() const { return refitNs_; }

  private:
    struct Effects
    {
        std::uint64_t refitTicks = 0;
        std::uint64_t lowConf = 0;
        double alignConfidence = 0;
        pcon::sim::SimTime delay = 0;
        std::size_t windows = 0;
        pcon::sim::SimTime lastWindowEnd = 0;
        std::uint64_t completed = 0;
    };

    static Effects observe(const Probes &probes);
    static Layer classify(const Effects &before, const Effects &after,
                          const Probes &probes);
    enum class Sample : std::uint8_t
    {
        None,
        Step,  ///< time the step whole
        Calls, ///< time the layer calls inside the step
    };

    Sample drawSample();
    void recordStep(double ns);

    Ledger &ledger_;
    std::uint32_t mask_;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
    std::uint64_t steps_ = 0;
    std::uint64_t sentinels_ = 0;
    std::uint64_t depthSamples_ = 0;
    double depthSum_ = 0;
    std::size_t depthMax_ = 0;
    std::vector<std::uint64_t> stepHist_;
    std::vector<double> refitNs_;
};

} // namespace perfbench

#endif // PCON_PERFBENCH_LEDGER_H
