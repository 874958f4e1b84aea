"""Determinism rule: no ambient randomness, and stable metric names.

Simulation results must be bit-identical across runs and platforms.
Host clocks, hash order and address order each have a rule of their
own (``wall-clock``, ``unordered-iteration``, ``pointer-order``);
this rule owns the two hazards no other rule checks:

  ambient-rng   std::random_device, rand()/srand()/random(),
                drand48(), std::mt19937 & friends. Randomness comes
                from a seeded sim::Rng.
  metric-name   registry counter()/gauge()/histogram() names must
                match the grammar [a-z0-9_.]+ (they are stable
                dashboard keys).

Both run over everything that builds: src, tests, examples and bench.
A deliberate use (a test feeding an invalid name on purpose) takes a
justified ``// pcon-lint: allow(determinism) <reason>``.
"""

import re

from engine import Finding, Rule

RNG_PATTERNS = [
    (
        re.compile(r"std\s*::\s*random_device"),
        "non-deterministic entropy source; seed a sim::Rng instead",
    ),
    (
        re.compile(
            r"(?<![\w:.])(?:rand|srand|random|drand48|lrand48)\s*\("
        ),
        "C library RNG with process-global state; use sim::Rng",
    ),
    (
        re.compile(
            r"std\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
            r"default_random_engine|ranlux\w+|knuth_b)"
        ),
        "standard-library engine; distributions differ across "
        "implementations, use sim::Rng",
    ),
]

METRIC_CALL_RE = re.compile(
    r"(?<![\w:])(?:counter|gauge|histogram)\s*\("
)
METRIC_NAME_RE = re.compile(r"[a-z0-9_.]+")


def metric_names(raw_line, blanked_line):
    """String-literal names passed to counter()/gauge()/histogram()
    on one line; non-literal names are not statically checkable."""
    names = []
    for match in METRIC_CALL_RE.finditer(blanked_line):
        at = match.end()
        while at < len(raw_line) and raw_line[at].isspace():
            at += 1
        if at >= len(raw_line) or raw_line[at] != '"':
            continue
        end = raw_line.find('"', at + 1)
        if end >= 0:
            names.append(raw_line[at + 1 : end])
    return names


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no ambient RNG anywhere that builds; metric names follow "
        "[a-z0-9_.]+"
    )
    scope = ("src", "tests", "examples", "bench")
    require_justification = True

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for idx, line in enumerate(source.blanked_lines):
                hits = [
                    f"[ambient-rng] {why}"
                    for regex, why in RNG_PATTERNS
                    if regex.search(line)
                ]
                if idx < len(source.raw_lines):
                    hits.extend(
                        f"[metric-name] metric name '{name}' "
                        f"violates the grammar [a-z0-9_.]+"
                        for name in metric_names(
                            source.raw_lines[idx], line
                        )
                        if not METRIC_NAME_RE.fullmatch(name)
                    )
                findings.extend(
                    Finding(self.name, source.rel, idx + 1, message)
                    for message in hits
                )
        return findings

    def selftest(self):
        errors = []
        rule = DeterminismRule()
        project = rule.project_from_texts(
            {
                "src/sim/clock.cc": (
                    "#include <chrono>\n"
                    "auto t = std::chrono::steady_clock::now();\n"
                    "int r = rand();\n"
                    "// pcon-lint: allow(determinism) test fixture\n"
                    "int s = rand();\n"
                ),
                "src/core/metrics.cc": (
                    'reg.counter("Bad Name");\n'
                    'reg.counter("good.name");\n'
                ),
                "src/core/stale.cc": (
                    "// pcon-lint: allow(determinism) no longer "
                    "needed\n"
                    "int fine = 0;\n"
                ),
                "tests/sim/rng_test.cc": (
                    "std::mt19937 gen(42);\n"
                    'reg.gauge("Bad-Gauge");\n'
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, _, stale = run_rules_with_stale(project, [rule])
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("src/core/metrics.cc", 1),
            ("src/sim/clock.cc", 3),
            ("tests/sim/rng_test.cc", 1),
            ("tests/sim/rng_test.cc", 2),
        ]
        if got != want:
            errors.append(
                f"determinism selftest: expected findings at "
                f"{want}, got {[f.render() for f in kept]} (the "
                f"host clock on clock.cc:2 is wall-clock's)"
            )
        got_stale = [(s.path, s.line) for s in stale]
        if got_stale != [("src/core/stale.cc", 1)]:
            errors.append(
                f"determinism selftest: expected one stale "
                f"suppression at src/core/stale.cc:1, got "
                f"{got_stale}"
            )
        return errors
