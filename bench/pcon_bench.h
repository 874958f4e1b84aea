/**
 * @file
 * pcon-bench: the one benchmark-timing harness for bench/. All host
 * timing in benchmark drivers goes through this header — the
 * `wall-clock` pcon-lint rule forbids raw std::chrono / rdtsc /
 * clock_gettime calls anywhere else under bench/ — so every target
 * shares one warmup+repeat protocol and one machine-readable output
 * format (the pcon-bench-v1 schema, src/perf/bench_schema.h).
 *
 * Protocol: each benchmark runs `warmup` untimed repeats, then
 * `reps` timed repeats of `iters` operations each; the per-repeat
 * values (ns/op for micro-benches, units/sec for rate benches) are
 * aggregated into min/median/p99/mean. Iteration counts are fixed by
 * the options — never adapted to measured time — so for a fixed seed
 * everything except the measured values is byte-stable run to run.
 *
 * Quick mode (PCON_BENCH_QUICK=1, the CI protocol) divides iteration
 * counts by 8 and uses 1 warmup + 5 repeats instead of 2 + 9.
 * PCON_BENCH_JSON_DIR redirects the BENCH_<topic>.json output
 * (default: the current directory).
 */

#ifndef PCON_BENCH_PCON_BENCH_H
#define PCON_BENCH_PCON_BENCH_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perf/bench_schema.h"

namespace pcon {
namespace bench {

/** Warmup/repeat protocol parameters, normally taken from the env. */
struct HarnessOptions
{
    /** Untimed repeats before measuring. */
    std::uint64_t warmupReps = 2;

    /** Timed repeats aggregated per entry. */
    std::uint64_t measuredReps = 9;

    /** Iteration counts are right-shifted by this much (quick = 3). */
    unsigned iterShift = 0;

    /** True when PCON_BENCH_QUICK selected the CI protocol. */
    bool quick = false;

    /** Where BENCH_<topic>.json lands ("" = current directory). */
    std::string outDir;

    /**
     * Read PCON_BENCH_QUICK / PCON_BENCH_WARMUP / PCON_BENCH_REPS /
     * PCON_BENCH_JSON_DIR.
     */
    static HarnessOptions fromEnv();
};

/** Host monotonic time in nanoseconds (steady clock). */
double steadyNowNs();

/** rdtsc-style cycle counter (monotonic counter fallback). */
std::uint64_t cycleCount();

/** Peak resident set size of this process, bytes. */
std::uint64_t peakRssBytes();

/**
 * One benchmark binary's suite: construct with the topic, add()
 * benchmarks (they run immediately and print a summary line), then
 * writeJson() to emit BENCH_<topic>.json.
 */
class Suite
{
  public:
    explicit Suite(const std::string &topic,
                   HarnessOptions opts = HarnessOptions::fromEnv());

    /**
     * Micro-benchmark: `body(iters)` performs `iters` operations;
     * the per-repeat value is ns/op (lower is better). `base_iters`
     * is the full-protocol iteration count (quick mode shifts it
     * down). Adds an `aux` cycles_per_op estimate from the cycle
     * counter.
     * @return the aggregated entry (owned by the suite).
     */
    perf::BenchEntry &
    add(const std::string &name, std::uint64_t base_iters,
        const std::function<void(std::uint64_t)> &body);

    /**
     * Rate benchmark: `body()` runs one scenario repeat and returns
     * the work units it completed (events, requests); the per-repeat
     * value is units per host second (higher is better). Adds aux
     * wall_ms (median) and work_units.
     */
    perf::BenchEntry &addRate(const std::string &name,
                              const std::string &unit,
                              const std::function<double()> &body);

    /**
     * Deterministic-count entry ("count" timebase): `value` is a
     * workload cost derived from simulator or registry counters
     * (events per op, hook calls per switch) that is byte-reproducible
     * for a fixed seed. These are the entries the regression gate
     * checks strictly — wall-clock entries are informational (see
     * perf/bench_compare.h). All four aggregate statistics are set to
     * `value`.
     */
    perf::BenchEntry &addCount(const std::string &name,
                               const std::string &unit, double value,
                               bool lower_is_better = true);

    /** Attach an aux counter to the most recent entry. */
    void aux(const std::string &key, double value);

    /** The report built so far (peak RSS is set at writeJson). */
    const perf::BenchReport &report() const { return report_; }

    const HarnessOptions &options() const { return opts_; }

    /**
     * Stamp peak RSS and write BENCH_<topic>.json into the output
     * directory. @return the path written.
     */
    std::string writeJson();

  private:
    perf::BenchEntry &aggregate(perf::BenchEntry entry,
                                std::vector<double> rep_values);

    HarnessOptions opts_;
    perf::BenchReport report_;
};

/**
 * Scenario wrapper for the figure/table drivers: times `body` under
 * the warmup+repeat protocol (default 0 warmup / 1 repeat so figure
 * output prints once; PCON_BENCH_SCENARIO_WARMUP and
 * PCON_BENCH_SCENARIO_REPS raise it for timing runs), prints a
 * `[pcon-bench]` wall-time summary, and — when PCON_BENCH_JSON_DIR
 * is set — emits BENCH_<name>.json with a scenario.wall_ms entry.
 * Returns `body`'s exit code; a failing repeat aborts the protocol.
 */
int scenarioMain(const std::string &name,
                 const std::function<int()> &body);

} // namespace bench
} // namespace pcon

#endif // PCON_BENCH_PCON_BENCH_H
