"""Shard-escape rule: shard-owned state must not leak off its shard.

Worlds may run on separate threads in the parallel sweeps of ROADMAP
item 3. Their byte-identical-results gate holds only if no mutable
shard state is reachable from outside the shard except
through the sanctioned channels (ownership.toml [channels]: sockets,
the remote-request ledger, the kernel hook surface, ...). This rule
proves that property on the current tree using the cross-TU
ownership model (cpp_model.py):

  * a namespace-scope variable (or block-scope ``static``) of a
    shard-owned type — a global is reachable from every shard;
  * a data member of a host-global or non-channel cross-shard type
    that stores, points at, or references a shard-owned type;
  * a method of such a type returning a non-const reference or
    pointer to a shard-owned type — a mutable window into the shard.

Method *parameters* are deliberately out of scope: a call executes
on the calling shard's thread, so passing a shard-owned reference
down a call chain does not move it across shards; only *storing* it
does. References between two shard-owned types are intra-shard by
construction (the ownership forest is rooted at one Machine/Kernel
pair per shard).

Every hit is either a real escape to fix before the engine lands or
a deliberate harness-side seam; the latter needs a *justified*
``allow(shard-escape)`` — bare allows do not suppress.
"""

import re

from cpp_model import classify, model_for
from engine import Finding, Rule
from rules_ownership import manifest_for

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

#: Statement heads at namespace scope that are not variable
#: definitions.
NON_VARIABLE_HEADS = {
    "using", "typedef", "template", "friend", "static_assert",
    "class", "struct", "union", "enum", "namespace", "extern",
    "return", "if", "for", "while", "switch", "void", "explicit",
    "virtual", "operator", "inline", "constexpr",
}

KEYWORDS = {
    "const", "constexpr", "static", "mutable", "inline", "volatile",
    "unsigned", "signed", "long", "short", "int", "char", "bool",
    "float", "double", "auto", "void", "struct", "class", "union",
    "typename", "public", "private", "protected", "virtual",
    "override", "final", "noexcept", "std",
}


def _type_idents(text):
    """Identifiers that could name a type in a declaration fragment
    (keywords and std:: vocabulary filtered out)."""
    return [
        i for i in IDENT_RE.findall(text) if i not in KEYWORDS
    ]


def _shard_owned_ref(model, classes, rel, idents):
    """First identifier that resolves (through ``rel``'s include
    closure) to a shard-owned type, or None."""
    for name in idents:
        t = model.visible(rel, name)
        if t is None:
            continue
        c = classes.get(id(t))
        if c is not None and c.cls == "shard-owned":
            return name
    return None


class ShardEscapeRule(Rule):
    name = "shard-escape"
    description = (
        "shard-owned types may not be stored globally, held by "
        "host-global/non-channel types, or returned mutably from "
        "them"
    )
    scope = ("src",)
    require_justification = True

    def __init__(self, ownership_path=None):
        self.ownership_path = ownership_path

    def run(self, project):
        manifest = manifest_for(self.ownership_path)
        if manifest.errors:
            return []  # the ownership rule reports these
        model = model_for(project)
        classes, _ = classify(model, manifest)
        channels = set(manifest.channels)
        findings = []

        from cpp_model import resolve_context
        from cpp_scan import scan_statements

        # 1. Globals and static locals of shard-owned types.
        for source in project.files_under(self.scope):
            for stmt in scan_statements(source.blanked):
                if stmt.scope == "namespace":
                    decl = stmt.text.split("=", 1)[0]
                    head = IDENT_RE.match(decl.strip())
                    if (
                        "(" in decl
                        or not head
                        or head.group(0) in NON_VARIABLE_HEADS
                    ):
                        continue
                elif stmt.scope == "block" and re.match(
                    r"static\b", stmt.text
                ):
                    decl = stmt.text.split("=", 1)[0]
                    if "(" in decl:
                        continue
                else:
                    continue
                idents = _type_idents(decl)
                if len(idents) < 2:
                    continue  # need at least a type and a name
                hit = _shard_owned_ref(
                    model, classes, source.rel, idents[:-1]
                )
                if hit:
                    where = (
                        "namespace-scope variable"
                        if stmt.scope == "namespace"
                        else "function-static variable"
                    )
                    findings.append(
                        Finding(
                            self.name,
                            source.rel,
                            stmt.line,
                            f"{where} of shard-owned type '{hit}': "
                            f"reachable from every shard; own it "
                            f"from the Machine/Kernel forest "
                            f"instead",
                        )
                    )

        # 2./3. Members and mutable returns of host-global or
        # non-channel cross-shard types.
        for name in sorted(model.defs):
            for t in model.defs[name]:
                ctx = resolve_context(model, classes, t)
                if ctx not in ("host-global", "cross-shard"):
                    continue
                if ctx == "cross-shard" and (
                    t.name in channels
                    or any(
                        b in channels for b in t.base_names()
                    )
                ):
                    continue  # sanctioned carrier (or a hook shim)
                for member in t.members:
                    decl = member.text.split("=", 1)[0]
                    idents = _type_idents(decl)
                    if len(idents) < 2:
                        continue
                    hit = _shard_owned_ref(
                        model, classes, t.rel, idents[:-1]
                    )
                    if hit:
                        findings.append(
                            Finding(
                                self.name,
                                t.rel,
                                member.line,
                                f"{ctx} type '{t.name}' stores "
                                f"shard-owned '{hit}'; route "
                                f"through a sanctioned channel or "
                                f"justify the seam",
                            )
                        )
                for method in t.methods:
                    sig = method.text.split("(", 1)[0]
                    if "&" not in sig and "*" not in sig:
                        continue
                    if re.search(r"\bconst\b", sig):
                        continue
                    idents = _type_idents(sig)
                    if len(idents) < 2:
                        continue
                    hit = _shard_owned_ref(
                        model, classes, t.rel, idents[:-1]
                    )
                    if hit:
                        findings.append(
                            Finding(
                                self.name,
                                t.rel,
                                method.line,
                                f"{ctx} type '{t.name}' returns a "
                                f"mutable reference/pointer to "
                                f"shard-owned '{hit}'",
                            )
                        )
        return findings

    def selftest(self):
        import pathlib
        import tempfile

        errors = []
        texts = {
            "src/os/kernel.h": (
                "namespace pcon::os {\n"
                "class PCON_SHARD_OWNED Kernel {\n"
                "    int ticks_ = 0;\n"
                "};\n"
                "Kernel gKernel;\n"
                "void probe(Kernel &k);\n"
                "}\n"
            ),
            "src/os/socket.h": (
                '#include "os/kernel.h"\n'
                "namespace pcon::os {\n"
                "// pcon-lint: cross-shard\n"
                "class Socket {\n"
                "    Kernel *peer_ = nullptr;\n"
                "};\n"
                "// pcon-lint: cross-shard\n"
                "class Mailbox {\n"
                "    Kernel *owner_ = nullptr;\n"
                "};\n"
                "}\n"
            ),
            "src/obs/registry.h": (
                '#include "os/kernel.h"\n'
                "namespace pcon::obs {\n"
                "// pcon-lint: host-global\n"
                "class Registry {\n"
                "  public:\n"
                "    os::Kernel &kernel();\n"
                "    const os::Kernel &peek() const;\n"
                "  private:\n"
                "    os::Kernel &kernel_;  "
                "// pcon-lint: allow(shard-escape) harness wiring, "
                "read only between runs\n"
                "    int count_ = 0;\n"
                "};\n"
                "void tick() {\n"
                "    static os::Kernel gFallback;\n"
                "}\n"
                "}\n"
            ),
            "src/obs/blind.h": (
                "namespace pcon::obs {\n"
                "// pcon-lint: host-global\n"
                "class Blind {\n"
                "    Kernel *guess_ = nullptr;\n"
                "};\n"
                "}\n"
            ),
        }
        manifest_text = (
            "[channels]\n"
            'Socket = "segment handoff surface"\n'
            "[coverage]\n"
            "layers = []\n"
        )
        with tempfile.NamedTemporaryFile(
            "w", suffix=".toml", delete=False
        ) as fh:
            fh.write(manifest_text)
            manifest_path = fh.name
        try:
            from engine import run_rules_with_stale

            rule = ShardEscapeRule(ownership_path=manifest_path)
            project = rule.project_from_texts(texts)
            kept, sups, _ = run_rules_with_stale(project, [rule])
            got = sorted((f.path, f.line) for f in kept)
            want = [
                ("src/obs/registry.h", 6),  # mutable ref return
                ("src/obs/registry.h", 13),  # static local
                ("src/os/kernel.h", 5),  # namespace-scope global
                ("src/os/socket.h", 9),  # non-channel cross-shard
            ]
            if got != want:
                errors.append(
                    f"shard-escape selftest: expected findings at "
                    f"{want}, got "
                    f"{[(f.path, f.line, f.message) for f in kept]}"
                )
            if len(sups) != 1 or "harness wiring" not in sups[0].reason:
                errors.append(
                    "shard-escape selftest: justified member allow "
                    "not honoured"
                )
            # Blind.h never includes kernel.h: Kernel is not visible
            # there, so no finding may fire (visibility gating).
            if any(f.path == "src/obs/blind.h" for f in kept):
                errors.append(
                    "shard-escape selftest: fired without include-"
                    "closure visibility"
                )
            # The sanctioned channel (Socket) and the const return
            # (peek) must be quiet; the parameter (probe) excluded.
            noisy = [
                f
                for f in kept
                if f.line == 5 and f.path == "src/os/socket.h"
            ]
            if noisy:
                errors.append(
                    "shard-escape selftest: sanctioned channel "
                    "member was flagged"
                )
        finally:
            pathlib.Path(manifest_path).unlink()
        return errors
