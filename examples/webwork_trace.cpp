/**
 * @file
 * Figure 4 reproduction (and the Figure 4 smoke test): trace one
 * WeBWorK request as it flows through the multi-stage server —
 * Apache PHP worker, MySQL thread over a persistent socket, forked
 * latex and dvipng children, disk I/O — with a trace::SpanTracer,
 * and print its per-stage anatomy (attributed energy, power, on-CPU
 * time, I/O bytes) and critical path from the span tree.
 *
 * Exits nonzero unless:
 *
 *  - every span of the request closed;
 *  - the tree has the Figure 4 topology: an httpd stage, a MySQL
 *    stage, latex and dvipng fork spans, and a disk I/O span;
 *  - the request's span energies sum to its container record within
 *    1e-6 J.
 *
 * Artifacts (inspect after a run):
 *  - webwork_trace_spans.json     feed to tools/trace_report
 *  - webwork_trace_perfetto.json  open in ui.perfetto.dev
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/energy_index.h"
#include "obs/report.h"
#include "telemetry/perfetto.h"
#include "trace/export.h"
#include "trace/span_json.h"
#include "trace/span_tracer.h"
#include "workloads/apps.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

using namespace pcon;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

/** True when some span of `request` has this kind and name prefix. */
bool
hasSpan(const trace::SpanCollector &spans, os::RequestId request,
        trace::SpanKind kind, const std::string &prefix)
{
    for (trace::SpanId id : spans.requestSpans(request)) {
        const trace::Span &s = spans.span(id);
        if (s.kind == kind && s.name.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

} // namespace

int
main()
{
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    wl::ServerWorld world(hw::sandyBridgeConfig(), model);
    // Registered after the world's ContainerManager, so every span
    // charge reads fresh container totals.
    trace::SpanCollector spans;
    trace::SpanTracer tracer(world.kernel(), world.manager(), spans, 0);
    world.kernel().addHooks(&tracer);
    // A Perfetto view of the same run: per-core scheduling, the fork
    // rebinds, device I/O, and per-container power counters.
    telemetry::PerfettoExporter perfetto(world.kernel());
    world.kernel().addHooks(&perfetto);
    for (int i = 1; i <= 200; ++i)
        world.sim().schedule(sim::msec(10) * i, [&world, &perfetto] {
            perfetto.samplePower(world.manager());
        });

    wl::WeBWorKApp app(/*seed=*/7);
    app.deploy(world.kernel());

    // Submit exactly one mid-difficulty request and trace it.
    std::string type = wl::WeBWorKApp::bucketType(4);
    os::RequestId request =
        world.requests().create(type, world.sim().now());
    tracer.trace(request);
    app.submit(request, type);
    world.run(sim::sec(5));

    obs::EnergyIndex index;
    index.attach(spans);
    std::printf("Traced WeBWorK request (%s) — compare Figure 4:\n"
                "httpd PHP -> MySQL over a persistent socket -> fork "
                "latex -> fork dvipng\n-> disk write -> response. "
                "Attributed energy and power per stage:\n\n%s\n%s",
                type.c_str(),
                obs::reportStageBreakdown(index, request).c_str(),
                obs::reportCriticalPath(index, request).c_str());
    index.detach();

    const std::vector<core::RequestRecord> &records =
        world.manager().records();
    if (records.empty() || records[0].id != request) {
        std::fputs("FAIL: the traced request did not complete\n",
                   stderr);
        return 1;
    }
    const core::RequestRecord &record = records[0];
    std::printf("\nRequest complete: %.1f ms end-to-end, %.1f ms "
                "on-CPU, %.3f J total\n(%.3f J CPU/memory + %.3f J "
                "device), mean power %.1f W.\n",
                sim::toMillis(record.responseTime()),
                record.cpuTimeNs / 1e6, record.totalEnergyJ().value(),
                record.cpuEnergyJ.value(), record.ioEnergyJ.value(),
                record.meanPowerW.value());

    check(spans.openCount() == 0, "every span closed");
    check(hasSpan(spans, request, trace::SpanKind::Stage,
                  "WeBWorK-worker"),
          "httpd stage");
    check(hasSpan(spans, request, trace::SpanKind::Stage, "mysqld-"),
          "MySQL stage");
    check(hasSpan(spans, request, trace::SpanKind::Fork, "latex"),
          "latex fork span");
    check(hasSpan(spans, request, trace::SpanKind::Fork, "dvipng"),
          "dvipng fork span");
    check(hasSpan(spans, request, trace::SpanKind::Io, "disk"),
          "disk I/O span");
    check(std::fabs((spans.requestEnergyJ(request) -
                     record.totalEnergyJ()).value()) <= 1e-6,
          "span energies sum to the container record");

    trace::writeSpanJson(spans, "webwork_trace_spans.json");
    perfetto.finish();
    trace::exportSpansToPerfetto(spans, perfetto);
    perfetto.write("webwork_trace_perfetto.json");
    std::printf("\nSpans exported to webwork_trace_spans.json (feed to "
                "tools/trace_report); Perfetto\ntrace (%zu slices, "
                "%zu span slices, %zu tracks) to "
                "webwork_trace_perfetto.json —\nopen it in "
                "ui.perfetto.dev\n",
                perfetto.sliceCount(), perfetto.spanSliceCount(),
                perfetto.trackCount());
    return failures == 0 ? 0 : 1;
}
