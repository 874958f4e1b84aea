"""Wall-clock rule: simulated time comes from the simulation clock.

Every timestamp in ``src/`` derives from ``sim::Simulation::now()``;
a host clock read there is either a reproducibility bug or a
self-measurement that belongs in ``telemetry::OverheadProfiler``. In
``bench/`` all host timing goes through the pcon_bench harness
(``bench/pcon_bench.h``), so every driver shares one warmup+repeat
protocol and one BENCH_<topic>.json format that tools/bench_report
can compare.

Flags any ``std::chrono`` token (which also catches ``using
namespace std::chrono``), the C clock family (``time``/``clock``/
``gettimeofday``/``clock_gettime``/``timespec_get``), and cycle
counter reads (``__rdtsc``/``__rdtscp``/``_rdtsc``/``rdtsc``/
``_mm_rdtsc``/``__builtin_readcyclecounter``).

The sanctioned host clocks (the OverheadProfiler's timing and the
harness's own clock) carry a justified ``allow(wall-clock)``; a bare
allow does not suppress.
"""

import re

from engine import Finding, Rule

PATTERNS = [
    (
        re.compile(r"std\s*::\s*chrono"),
        "host std::chrono; simulated components use "
        "sim::Simulation::now(), bench drivers the pcon_bench "
        "harness",
    ),
    (
        re.compile(
            r"(?<![\w:.])(?:time|clock|gettimeofday|clock_gettime|"
            r"timespec_get)\s*\("
        ),
        "C wall-clock call; simulated components use "
        "sim::Simulation::now(), bench drivers the pcon_bench "
        "harness",
    ),
    (
        re.compile(
            r"(?<!\w)(?:__rdtscp?|_rdtsc|rdtsc|_mm_rdtsc|"
            r"__builtin_readcyclecounter)\s*\("
        ),
        "cycle counter read; self-measurement belongs in "
        "telemetry::OverheadProfiler, bench timing in "
        "bench::cycleCount()",
    ),
]


class WallClockRule(Rule):
    name = "wall-clock"
    description = (
        "src/ takes time from the sim clock and bench/ from the "
        "pcon_bench harness; no other host clock reads"
    )
    scope = ("src", "bench")
    require_justification = True

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for idx, line in enumerate(source.blanked_lines):
                for regex, why in PATTERNS:
                    if regex.search(line):
                        findings.append(
                            Finding(
                                self.name, source.rel, idx + 1, why
                            )
                        )
        return findings

    def selftest(self):
        errors = []
        rule = WallClockRule()
        project = rule.project_from_texts(
            {
                "src/os/sched.cc": (
                    "auto t0 = std::chrono::steady_clock::now();\n"
                    "double when = sim.now();\n"
                    "time_t raw = time(nullptr);\n"
                    "uint64_t c = __rdtsc();\n"
                    "int timeout = settle_time(3);\n"
                    "using namespace std::chrono;\n"
                ),
                "src/sim/clock.cc": (
                    "#include <chrono>\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                    "int r = rand();\n"
                ),
                "src/telemetry/overhead.cc": (
                    "// pcon-lint: allow(wall-clock) profiler "
                    "self-measures its own host-time overhead\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
                "src/util/fmt.cc": (
                    "// pcon-lint: allow(wall-clock)\n"
                    "clock_t c = clock();\n"
                ),
                "bench/bench_bad.cc": (
                    "#include <chrono>\n"
                    "auto t0 = std::chrono::steady_clock::now();\n"
                    "struct timespec ts;\n"
                    "clock_gettime(CLOCK_MONOTONIC, &ts);\n"
                    "std::uint64_t c = __rdtsc();\n"
                    "double runtime = simulated_time(x);\n"
                    "// pcon-lint: allow(wall-clock) host API cost\n"
                    "std::uint64_t ok = __rdtsc();\n"
                    "auto n = __builtin_readcyclecounter();\n"
                ),
                "bench/pcon_bench.cc": (
                    "// pcon-lint: allow(wall-clock) the harness\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
                "tests/os/sched_test.cc": (
                    "auto t = std::chrono::steady_clock::now();\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, stale = run_rules_with_stale(project, [rule])
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("bench/bench_bad.cc", 2),
            ("bench/bench_bad.cc", 4),
            ("bench/bench_bad.cc", 5),
            ("bench/bench_bad.cc", 9),
            ("src/os/sched.cc", 1),
            ("src/os/sched.cc", 3),
            ("src/os/sched.cc", 4),
            ("src/os/sched.cc", 6),
            ("src/sim/clock.cc", 2),
            ("src/util/fmt.cc", 2),  # bare allow must not suppress
        ]
        if got != want:
            errors.append(
                f"wall-clock selftest: expected findings at {want}, "
                f"got {got} (sim.now(), settle_time(), "
                f"simulated_time(), the allowed lines and tests/ "
                f"must stay quiet)"
            )
        got_sups = sorted((s.path, s.line) for s in sups)
        if got_sups != [
            ("bench/bench_bad.cc", 8),
            ("bench/pcon_bench.cc", 2),
            ("src/telemetry/overhead.cc", 2),
        ]:
            errors.append(
                f"wall-clock selftest: justified allow() markers "
                f"not honoured, got {got_sups}"
            )
        if [(s.path, s.line) for s in stale] != [
            ("src/util/fmt.cc", 1)
        ]:
            errors.append(
                "wall-clock selftest: bare allow() should be "
                "reported stale"
            )
        return errors
