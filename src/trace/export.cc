#include "export.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/logging.h"

namespace pcon {
namespace trace {

namespace {

/** Root-to-span frame path, ';'-separated. */
std::string
framePath(const SpanCollector &collector, const Span &span)
{
    std::vector<const Span *> chain;
    for (SpanId id = span.id; id != NoSpan;) {
        const Span &s = collector.span(id);
        chain.push_back(&s);
        id = s.parent;
    }
    std::reverse(chain.begin(), chain.end());
    std::string path;
    for (const Span *s : chain) {
        if (!path.empty())
            path += ';';
        if (s->kind != SpanKind::Root) {
            path += 'm';
            path += std::to_string(s->machine);
            path += '.';
        }
        path += s->name;
    }
    return path;
}

/**
 * Greedy overlap-lane assignment per machine: spans sorted by
 * (openedAt, id) take the lowest lane free at their open time.
 */
std::map<SpanId, int>
assignLanes(const SpanCollector &collector)
{
    std::map<int, std::vector<const Span *>> per_machine;
    for (const Span &s : collector.spans())
        if (!s.open)
            per_machine[s.machine].push_back(&s);
    std::map<SpanId, int> lanes;
    for (auto &kv : per_machine) {
        std::vector<const Span *> &spans = kv.second;
        std::sort(spans.begin(), spans.end(),
                  [](const Span *a, const Span *b) {
                      if (a->openedAt != b->openedAt)
                          return a->openedAt < b->openedAt;
                      return a->id < b->id;
                  });
        std::vector<sim::SimTime> lane_end;
        for (const Span *s : spans) {
            std::size_t lane = lane_end.size();
            for (std::size_t i = 0; i < lane_end.size(); ++i) {
                if (lane_end[i] <= s->openedAt) {
                    lane = i;
                    break;
                }
            }
            if (lane == lane_end.size())
                lane_end.push_back(0);
            lane_end[lane] = s->closedAt;
            lanes[s->id] = static_cast<int>(lane);
        }
    }
    return lanes;
}

} // namespace

std::string
renderFlamegraph(const SpanCollector &collector)
{
    // Ordered map: merged per unique path, lexicographic output.
    std::map<std::string, long long> stacks;
    for (const Span &s : collector.spans()) {
        if (s.open)
            continue;
        stacks[framePath(collector, s)] +=
            std::llround(s.energyJ.value() * 1e6);
    }
    std::ostringstream out;
    for (const auto &kv : stacks)
        out << kv.first << " " << kv.second << "\n";
    return out.str();
}

void
writeFlamegraph(const SpanCollector &collector, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    util::fatalIf(!out, "cannot open '", path, "' for writing");
    out << renderFlamegraph(collector);
}

void
exportSpansToPerfetto(const SpanCollector &collector,
                      telemetry::PerfettoExporter &exporter)
{
    std::map<SpanId, int> lanes = assignLanes(collector);
    // Slices in id order (deterministic; Perfetto sorts by ts).
    for (const Span &s : collector.spans()) {
        if (s.open)
            continue;
        std::string name = s.name;
        if (s.kind == SpanKind::Root)
            name += " #" + std::to_string(s.request);
        exporter.addSpanSlice(s.machine, lanes[s.id], s.openedAt,
                              s.duration(), name, "energy_uj",
                              s.energyJ.value() * 1e6);
    }
    // One flow arrow per cross-machine edge: starts inside the
    // sender's slice, finishes at the receiver's open edge.
    for (const Span &s : collector.spans()) {
        if (s.open || s.remoteParent == NoSpan)
            continue;
        const Span &sender = collector.span(s.remoteParent);
        if (sender.open)
            continue;
        sim::SimTime start = s.openedAt;
        start = std::max(start, sender.openedAt);
        start = std::min(start, sender.closedAt);
        exporter.addSpanFlow(s.id, true, sender.machine,
                             lanes[sender.id], start);
        exporter.addSpanFlow(s.id, false, s.machine, lanes[s.id],
                             s.openedAt);
    }
}

} // namespace trace
} // namespace pcon
