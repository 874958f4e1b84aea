"""Unordered-iteration rule: hash order must not reach a result.

``std::unordered_map``/``set`` iteration order depends on the hash
function, the bucket count history, and (for pointer keys) heap
addresses. Whether a loop over one is harmless cannot be read off its
body: a floating-point sum in hash order is already irreproducible,
and an innocent-looking helper call may write to a ledger.

So this rule is body-blind: it flags every range-for over a variable
declared anywhere in ``src/`` as an unordered container. The fix is a
sorted copy (dense ids exist precisely so sorting is cheap) or a
justified ``allow(unordered-iteration)`` saying why the order cannot
reach any output (an integer count; ids sorted before returning).
"""

import re

from engine import Finding, Rule

DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r"[^;{}()]*>(?:\s*&)?\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(
    r"for\s*\([^;)]*:\s*\*?\s*([A-Za-z_]\w*)\s*\)"
)


class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "every range-for over an unordered container iterates a "
        "sorted copy or justifies why hash order cannot leak"
    )
    scope = ("src",)
    require_justification = True

    def run(self, project):
        files = project.files_under(self.scope)
        unordered_names = set()
        for source in files:
            for m in DECL_RE.finditer(source.blanked):
                unordered_names.add(m.group(1))

        findings = []
        for source in files:
            for idx, line in enumerate(source.blanked_lines):
                for m in RANGE_FOR_RE.finditer(line):
                    if m.group(1) in unordered_names:
                        findings.append(
                            Finding(
                                self.name,
                                source.rel,
                                idx + 1,
                                f"range-for over unordered container "
                                f"'{m.group(1)}'; hash order is not "
                                f"reproducible — iterate a sorted "
                                f"copy",
                            )
                        )
        return findings

    def selftest(self):
        errors = []
        rule = UnorderedIterationRule()
        project = rule.project_from_texts(
            {
                "src/core/ledger.cc": (
                    "std::unordered_map<int, double> by_id;\n"
                    "void flush(Journal &j) {\n"
                    "    for (auto &e : by_id) {\n"
                    "        j.record(e.first, e.second);\n"
                    "    }\n"
                    "}\n"
                    "double total() {\n"
                    "    double sum = 0;\n"
                    "    for (auto &e : by_id) {\n"
                    "        sum += e.second;\n"
                    "    }\n"
                    "    return sum;\n"
                    "}\n"
                    "void drain(Journal &j) {\n"
                    "    std::vector<int> ids;\n"
                    "    // pcon-lint: allow(unordered-iteration) "
                    "sorted before use\n"
                    "    for (auto &e : by_id) {\n"
                    "        ids.push_back(e.first);\n"
                    "    }\n"
                    "    std::sort(ids.begin(), ids.end());\n"
                    "    for (int id : ids) {\n"
                    "        j.record(id, by_id.at(id));\n"
                    "    }\n"
                    "}\n"
                ),
            }
        )
        from engine import run_rules_with_stale

        kept, sups, _ = run_rules_with_stale(project, [rule])
        got = [(f.path, f.line) for f in kept]
        if got != [("src/core/ledger.cc", 3), ("src/core/ledger.cc", 9)]:
            errors.append(
                f"unordered-iteration selftest: expected the "
                f"journal-writing loop (line 3) and the "
                f"floating-point sum (line 9), got {got} (the "
                f"justified collect loop and the loop over the "
                f"sorted ids must stay quiet)"
            )
        if [(s.path, s.line) for s in sups] != [
            ("src/core/ledger.cc", 17)
        ]:
            errors.append(
                "unordered-iteration selftest: justified allow() "
                "not honoured"
            )
        return errors
