"""Shared-state rule: no undeclared mutable globals.

Namespace-scope variables and function-local ``static`` variables are
process-wide shared state: once worlds run on separate threads (the
parallel sweeps of ROADMAP item 3), every one of them is a data race
waiting for the thread that writes it. This rule requires each such
variable in ``src/`` to be

  * ``const`` / ``constexpr`` / ``constinit const`` (immutable), or
  * ``PCON_GUARDED_BY(<mutex>)`` — Clang's thread-safety analysis
    then owns it, exactly as for guarded class members, or
  * explicitly acknowledged with a *justified* suppression::

        // pcon-lint: allow(shared-state) guarded by gLogMutex

    The justification text after the ``allow(...)`` is mandatory —
    a bare allow() does not suppress, because the whole point is to
    record *why* this global is safe to share.

``thread_local`` variables are exempt (not shared between shards).
Class members are the guarded-members rule's job, not this one's.
"""

import re

from cpp_scan import scan_statements
from engine import ALLOW_RE, Finding, Rule
from rules_guarded_members import GUARDED_RE

#: Statement heads that can never be a variable definition.
NON_VARIABLE_HEADS = {
    "using", "typedef", "template", "static_assert", "friend",
    "extern", "return", "delete", "goto", "case", "default", "break",
    "continue", "throw", "if", "else", "for", "while", "do",
    "switch", "public", "private", "protected", "namespace", "class",
    "struct", "union", "enum", "operator", "co_return", "co_yield",
}

#: 'Type name;' / 'Type name = init;' / 'Type name{init};' — a
#: declaration with no parameter list. 'Type name(args);' is skipped
#: (ambiguous with function declarations) which is fine: this
#: codebase brace-initializes.
VARIABLE_RE = re.compile(
    r"^(?:(?:static|inline|mutable|constinit)\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;]*>)?[\s*&]+"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{.*\})?$"
)

QUALIFIER_RE = re.compile(r"^(?:static|inline|constinit)\s+")


def is_immutable(text):
    """const/constexpr anywhere in the declarator head."""
    return bool(re.search(r"\b(?:const|constexpr)\b", text))


def variable_name(text):
    """Declared name if the statement defines a variable, else None."""
    head = re.match(r"[A-Za-z_]\w*", text)
    if head and head.group(0) in NON_VARIABLE_HEADS:
        return None
    if re.search(r"\bthread_local\b", text):
        return None
    m = VARIABLE_RE.match(text)
    return m.group(1) if m else None


class SharedStateRule(Rule):
    name = "shared-state"
    description = (
        "mutable namespace-scope / static-local state in src/ must "
        "be const or carry a justified allow(shared-state) comment"
    )
    scope = ("src",)

    def run(self, project):
        findings = []
        for source in project.files_under(self.scope):
            for stmt in scan_statements(source.blanked):
                if stmt.scope == "namespace":
                    text = stmt.text
                elif stmt.scope == "block":
                    if not re.match(r"static\b", stmt.text):
                        continue
                    text = stmt.text
                else:
                    continue  # class members: guarded-members rule
                if GUARDED_RE.search(text):
                    continue  # thread-safety analysis owns it
                if is_immutable(text):
                    continue
                name = variable_name(text)
                if name is None:
                    continue
                where = (
                    "namespace-scope variable"
                    if stmt.scope == "namespace"
                    else "function-local static"
                )
                findings.append(
                    Finding(
                        self.name,
                        source.rel,
                        stmt.line,
                        f"mutable {where} '{name}' is cross-shard "
                        f"shared state; make it const, or add "
                        f"'// pcon-lint: allow(shared-state) "
                        f"<why it is safe>'",
                    )
                )
        return findings

    def suppression_at(self, source, idx):
        """allow(shared-state) only counts with a justification."""
        hit = super().suppression_at(source, idx)
        if hit is None:
            return None
        _, marker = hit
        line = source.raw_lines[marker]
        m = ALLOW_RE.search(line)
        tail = line[m.end():].strip() if m else ""
        if not tail:
            return None  # bare allow(): rejected, finding stands
        return f"allow(shared-state): {tail}", marker

    def selftest(self):
        errors = []
        rule = SharedStateRule()
        project = rule.project_from_texts(
            {
                "src/util/globals.cc": (
                    "namespace pcon {\n"
                    "namespace {\n"
                    "int gBad = 0;\n"
                    "const int kFine = 1;\n"
                    "constexpr double kAlso = 2.0;\n"
                    "// pcon-lint: allow(shared-state) guarded by "
                    "gMu, see logging.cc\n"
                    "LogCounts gCounts;\n"
                    "// pcon-lint: allow(shared-state)\n"
                    "int gBareAllow = 0;\n"
                    "Level gGuarded PCON_GUARDED_BY(gMu) = kWarn;\n"
                    "}\n"
                    "int counter() {\n"
                    "    static int gCalls = 0;\n"
                    "    static const int kCap = 10;\n"
                    "    thread_local int scratch = 0;\n"
                    "    int local = 0;\n"
                    "    return gCalls + kCap + scratch + local;\n"
                    "}\n"
                    "} // namespace pcon\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, suppressed, stale = run_rules_with_stale(
            project, [rule]
        )
        got = sorted((f.path, f.line) for f in kept)
        want = [
            ("src/util/globals.cc", 3),   # gBad
            ("src/util/globals.cc", 9),   # gBareAllow: no reason
            ("src/util/globals.cc", 13),  # static gCalls
        ]
        if got != want:
            errors.append(
                f"shared-state selftest: expected findings at "
                f"{want}, got {[f.render() for f in kept]}"
            )
        if len(suppressed) != 1 or "gMu" not in suppressed[0].reason:
            errors.append(
                f"shared-state selftest: justified allow() did not "
                f"suppress gCounts: "
                f"{[s.render() for s in suppressed]}"
            )
        # The bare allow() is unused, so it must surface as stale —
        # the author learns the comment is ineffective, not honored.
        if [(s.path, s.line) for s in stale] != [
            ("src/util/globals.cc", 8)
        ]:
            errors.append(
                f"shared-state selftest: bare allow() should be "
                f"reported stale, got {[s.render() for s in stale]}"
            )
        return errors
