#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Engine: return "engine";
    case Layer::CoreHooks: return "core.hooks";
    case Layer::TraceHooks: return "trace.hooks";
    case Layer::ObsIndex: return "obs.index";
    case Layer::ObsQuery: return "obs.query";
    case Layer::RecalRefit: return "core.recal.refit";
    case Layer::RecalAlign: return "core.recal.align";
    case Layer::RecalSampler: return "core.recal.sampler";
    case Layer::MeterDelivery: return "hw.meter_delivery";
    case Layer::Completion: return "workloads.completion";
    case Layer::Harness: return "harness";
    case Layer::Count: break;
    }
    return "?";
}

namespace {

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

void
Ledger::calibrate()
{
    constexpr std::int64_t kRateWindowNs = 20'000'000;
    std::int64_t n0 = nowNs();
    std::int64_t s0 = stamp();
    std::int64_t n1 = n0;
    while (n1 - n0 < kRateWindowNs)
        n1 = nowNs();
    nsPerStamp_ = static_cast<double>(n1 - n0) /
        static_cast<double>(std::max<std::int64_t>(1, stamp() - s0));

    // Empty spans nested in nothing, through the same code path (and
    // past the span cap) as the spans of a run.
    constexpr int kRounds = 9;
    constexpr int kSpans = 20000;
    std::vector<double> inner;
    std::vector<double> outer;
    for (int r = 0; r < kRounds; ++r) {
        Ledger probe(0);
        probe.nsPerStamp_ = nsPerStamp_;
        std::int64_t t0 = stamp();
        for (int i = 0; i < kSpans; ++i) {
            probe.begin();
            probe.end(Layer::Harness);
        }
        std::int64_t t1 = stamp();
        outer.push_back(static_cast<double>(t1 - t0) * nsPerStamp_ / kSpans);
        inner.push_back(probe.exactNs_[static_cast<std::size_t>(
                            Layer::Harness)] /
                        kSpans);
    }
    innerNs_ = medianOf(inner);
    outerNs_ = std::max(innerNs_, medianOf(outer));
}

void
Ledger::begin()
{
    stack_.push_back(Frame{stamp(), 0, nextId_++, 0});
}

double
Ledger::close(Layer layer, std::int64_t t, bool sampled)
{
    Frame f = stack_.back();
    stack_.pop_back();
    // Net of this span's own clock reads and of every span nested in it.
    double dur = static_cast<double>(t - f.start) * nsPerStamp_ - innerNs_ -
        static_cast<double>(f.descendants) * outerNs_;
    auto i = static_cast<std::size_t>(layer);
    if (sampled) {
        sampledNs_[i] += dur - f.childNs;
        ++sampledSpans_[i];
    } else {
        exactNs_[i] += dur - f.childNs;
    }
    std::uint32_t parent = 0;
    if (!stack_.empty()) {
        stack_.back().childNs += dur;
        stack_.back().descendants += f.descendants + 1;
        parent = stack_.back().id;
    } else if (sampled) {
        sampledRootNs_ += dur;
    }
    if (log_.size() < spanCap_)
        log_.push_back(SpanRecord{f.start, t, f.id, parent, layer});
    else
        ++dropped_;
    return dur;
}

double
Ledger::sampledMeanNs(Layer layer) const
{
    auto i = static_cast<std::size_t>(layer);
    return sampledSpans_[i] == 0
        ? 0.0
        : sampledNs_[i] / static_cast<double>(sampledSpans_[i]);
}

void
Ledger::addNested(Layer parent, double ns)
{
    auto i = static_cast<std::size_t>(parent);
    nestedNs_[i] += ns;
    ++nestedSamples_[i];
}

double
Ledger::estimateNs(Layer layer) const
{
    auto i = static_cast<std::size_t>(layer);
    double nested = nestedSamples_[i] == 0
        ? 0.0
        : nestedNs_[i] / static_cast<double>(nestedSamples_[i]);
    return exactNs_[i] +
        (sampledMeanNs(layer) - nested) * static_cast<double>(calls(layer));
}

std::uint64_t
TimedHooks::totalCalls() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : calls_)
        total += c;
    return total;
}

void
TimedHooks::onContextSwitch(int core, pcon::os::Task *prev,
                            pcon::os::Task *next)
{
    timed(Hook::ContextSwitch,
          [&] { inner_.onContextSwitch(core, prev, next); });
}

void
TimedHooks::onContextRebind(pcon::os::Task &task,
                            pcon::os::RequestId old_ctx,
                            pcon::os::RequestId new_ctx)
{
    timed(Hook::Rebind,
          [&] { inner_.onContextRebind(task, old_ctx, new_ctx); });
}

void
TimedHooks::onSamplingInterrupt(int core)
{
    timed(Hook::SamplingInterrupt,
          [&] { inner_.onSamplingInterrupt(core); });
}

void
TimedHooks::onIoComplete(pcon::hw::DeviceKind device,
                         pcon::os::RequestId context,
                         pcon::sim::SimTime busy_time, double bytes)
{
    timed(Hook::IoComplete, [&] {
        inner_.onIoComplete(device, context, busy_time, bytes);
    });
}

void
TimedHooks::onTaskExit(pcon::os::Task &task)
{
    timed(Hook::TaskExit, [&] { inner_.onTaskExit(task); });
}

void
TimedHooks::onFork(pcon::os::Task &parent, pcon::os::Task &child)
{
    timed(Hook::Fork, [&] { inner_.onFork(parent, child); });
}

void
TimedHooks::onSegmentReceived(pcon::os::Task &task,
                              const pcon::os::Segment &segment)
{
    timed(Hook::SegmentReceived,
          [&] { inner_.onSegmentReceived(task, segment); });
}

void
TimedHooks::onActuation(int core, int duty_level, int pstate)
{
    timed(Hook::Actuation,
          [&] { inner_.onActuation(core, duty_level, pstate); });
}

void
TimedSpanObserver::onSpanOpened(const pcon::trace::Span &span)
{
    ledger_.tick(Layer::ObsIndex);
    if (!ledger_.sampling()) {
        inner_.onSpanOpened(span);
        return;
    }
    ledger_.begin();
    inner_.onSpanOpened(span);
    ledger_.end(Layer::ObsIndex);
}

void
TimedSpanObserver::onSpanClosed(const pcon::trace::Span &span)
{
    ledger_.tick(Layer::ObsIndex);
    if (!ledger_.sampling()) {
        inner_.onSpanClosed(span);
        return;
    }
    ledger_.begin();
    inner_.onSpanClosed(span);
    ledger_.end(Layer::ObsIndex);
}

void
TimedSpanObserver::onSpanCharged(const pcon::trace::Span &span,
                                 pcon::util::Joules energy_delta,
                                 double cpu_delta_ns)
{
    ledger_.tick(Layer::ObsIndex);
    if (!ledger_.sampling()) {
        inner_.onSpanCharged(span, energy_delta, cpu_delta_ns);
        return;
    }
    ledger_.begin();
    inner_.onSpanCharged(span, energy_delta, cpu_delta_ns);
    ledger_.end(Layer::ObsIndex);
}

namespace {

// Step-duration histogram: exact below 16 ns, then 16 buckets per
// power of two (<= 6.25% wide).
constexpr std::size_t kSubBits = 4;

std::size_t
bucketOf(std::uint64_t ns)
{
    if (ns < (1u << kSubBits))
        return ns;
    int msb = 63 - __builtin_clzll(ns);
    int shift = msb - static_cast<int>(kSubBits);
    std::size_t sub = (ns >> shift) & ((1u << kSubBits) - 1);
    return (1u << kSubBits) +
        static_cast<std::size_t>(shift) * (1u << kSubBits) + sub;
}

double
bucketMid(std::size_t b)
{
    if (b < (1u << kSubBits))
        return static_cast<double>(b);
    std::size_t rel = b - (1u << kSubBits);
    std::size_t shift = rel >> kSubBits;
    std::uint64_t sub = rel & ((1u << kSubBits) - 1);
    double low = static_cast<double>(((1u << kSubBits) + sub) << shift);
    return low + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
}

} // namespace

Stepper::Stepper(Ledger &ledger, std::uint32_t sample_every)
    : ledger_(ledger), mask_(sample_every - 1)
{
    if (sample_every < 2 || (sample_every & mask_) != 0)
        throw std::invalid_argument(
            "sample_every must be a power of two, at least 2");
}

Stepper::Effects
Stepper::observe(const Probes &probes)
{
    Effects e;
    if (probes.recal != nullptr) {
        const pcon::core::OnlineRecalibrator &r = *probes.recal;
        e.refitTicks = r.refits() + r.refitsSkipped() + r.refitsRejected();
        e.lowConf = r.lowConfidenceAlignments();
        e.alignConfidence = r.lastAlignmentConfidence();
        e.delay = r.estimatedDelay();
    }
    if (probes.sampler != nullptr &&
        !probes.sampler->windows().empty()) {
        e.windows = probes.sampler->windows().size();
        e.lastWindowEnd = probes.sampler->windows().back().end;
    }
    if (probes.client != nullptr)
        e.completed = probes.client->completed();
    return e;
}

Layer
Stepper::classify(const Effects &before, const Effects &after,
                  const Probes &probes)
{
    if (after.refitTicks != before.refitTicks)
        return Layer::RecalRefit;
    if (after.lowConf != before.lowConf ||
        after.alignConfidence != before.alignConfidence ||
        after.delay != before.delay)
        return Layer::RecalAlign;
    if (after.windows != before.windows ||
        after.lastWindowEnd != before.lastWindowEnd)
        return Layer::RecalSampler;
    if (probes.meterFired != nullptr && *probes.meterFired)
        return Layer::MeterDelivery;
    if (after.completed != before.completed)
        return Layer::Completion;
    return Layer::Engine;
}

Stepper::Sample
Stepper::drawSample()
{
    // xorshift64: a fixed sequence, independent of what the steps do.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    switch ((rng_ >> 32) & mask_) {
    case 0: return Sample::Step;
    case 1: return Sample::Calls;
    default: return Sample::None;
    }
}

void
Stepper::recordStep(double ns)
{
    std::size_t b = bucketOf(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    if (b >= stepHist_.size())
        stepHist_.resize(b + 1, 0);
    ++stepHist_[b];
}

void
Stepper::runUntil(pcon::sim::Simulation &sim, pcon::sim::SimTime until,
                  const Probes &probes)
{
    // A step timed whole runs with layer calls untimed, so its time
    // carries no nested instrumentation; the probes between steps stay
    // outside every span.
    Effects before = observe(probes);
    for (;;) {
        bool fired = false;
        sim.scheduleAt(until, [&fired] { fired = true; });
        std::uint64_t round_start = steps_;
        for (;;) {
            if (probes.meterFired != nullptr)
                *probes.meterFired = false;
            Sample sample = drawSample();
            // pendingEvents() takes the queue's lock: sampled steps only.
            std::size_t depth = 0;
            if (sample != Sample::None)
                depth = sim.pendingEvents() - 1; // sentinel
            std::int64_t end = 0;
            double calls_ns = ledger_.sampledRootNs();
            if (sample == Sample::Step) {
                ledger_.begin();
                sim.step();
                end = stamp();
            } else if (sample == Sample::Calls) {
                ledger_.setSampling(true);
                sim.step();
                ledger_.setSampling(false);
            } else {
                sim.step();
            }
            if (fired) {
                if (sample == Sample::Step)
                    ledger_.endSampleAt(Layer::Harness, end);
                ++sentinels_;
                break;
            }
            Effects after = observe(probes);
            Layer layer = classify(before, after, probes);
            before = after;
            ledger_.tick(layer);
            if (sample == Sample::Step) {
                double ns = ledger_.endSampleAt(layer, end);
                recordStep(ns);
                if (layer == Layer::RecalRefit)
                    refitNs_.push_back(ns);
            } else if (sample == Sample::Calls) {
                ledger_.addNested(layer, ledger_.sampledRootNs() - calls_ns);
            }
            if (sample != Sample::None) {
                depthSum_ += static_cast<double>(depth);
                depthMax_ = std::max(depthMax_, depth);
                ++depthSamples_;
            }
            ++steps_;
        }
        // A round that ran only the sentinel proves nothing else is
        // due at `until`.
        if (steps_ == round_start)
            return;
    }
}

double
Stepper::queueDepthMean() const
{
    return depthSamples_ == 0
        ? 0.0
        : depthSum_ / static_cast<double>(depthSamples_);
}

double
Stepper::stepNsQuantile(double q) const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : stepHist_)
        total += c;
    if (total == 0)
        return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < stepHist_.size(); ++b) {
        seen += stepHist_[b];
        if (seen > rank)
            return bucketMid(b);
    }
    return bucketMid(stepHist_.size() - 1);
}

} // namespace perfbench
