"""Ownership rule: the shard-ownership manifest must stay honest.

``ownership.toml`` plus in-source markers classify every type the
escape analysis cares about as shard-owned / cross-shard /
host-global / value (see cpp_model.py). This rule polices that
classification itself, so the analysis built on top of it can be
trusted. Every failure is a *finding*, not a crash — a rotten
manifest must fail CI loudly, with a file:line pointing into the
manifest or the offending header:

  * manifest parse/shape errors (bad TOML, unknown tables,
    non-string headers, unknown ownership class in [files]);
  * a type listed whose name matches no scanned definition, or whose
    declared header does not define it (the work list must not rot);
  * a type listed under two ownership classes;
  * an in-source marker that contradicts the manifest entry for the
    same type;
  * a [channels] entry naming an unknown type, or a channel that
    does not classify cross-shard (channels *are* the sanctioned
    cross-shard surface);
  * a [files] default naming no scanned file;
  * a shared_types.toml type (the guarded-members work list — types
    accessed from several shards) classified shard-owned: the two
    manifests would contradict each other;
  * coverage: a non-nested type defined under the covered layers
    ([coverage] layers in the manifest) that resolves no ownership
    class — via marker, manifest entry, or [files] default. An
    unclassified type in a covered layer is exactly the blind spot
    the escape analysis cannot see through.

Suppressible only with a justified ``allow(ownership)``.
"""

import pathlib

from cpp_model import (
    classify,
    load_ownership,
    model_for,
)
from engine import Finding, Rule
from rules_guarded_members import load_shared_types

DEFAULT_OWNERSHIP = (
    pathlib.Path(__file__).resolve().parent / "ownership.toml"
)


def manifest_for(path):
    """Load the manifest, defaulting to the tool's own copy, and
    remember a repo-relative-ish display path for findings."""
    path = pathlib.Path(path) if path else DEFAULT_OWNERSHIP
    manifest = load_ownership(path)
    manifest.rel = path.name if path.is_absolute() else str(path)
    # Keep the canonical tool-relative spelling for the default copy
    # so findings are clickable from the repo root.
    if path == DEFAULT_OWNERSHIP:
        manifest.rel = "tools/pcon_lint/ownership.toml"
    return manifest


class OwnershipRule(Rule):
    name = "ownership"
    description = (
        "ownership.toml and in-source shard-ownership markers must "
        "agree, resolve, and not rot; every type in the covered "
        "layers has a class"
    )
    scope = ("src",)
    require_justification = True

    def __init__(self, ownership_path=None, shared_types_path=None):
        self.ownership_path = ownership_path
        self.shared_types_path = shared_types_path

    def run(self, project):
        manifest = manifest_for(self.ownership_path)
        model = model_for(project)
        findings = []

        def report(line, message):
            findings.append(
                Finding(self.name, manifest.rel, line, message)
            )

        for message in manifest.errors:
            report(1, message)
        for name, cls_a, cls_b in manifest.duplicates:
            report(
                manifest.line(cls_b, name),
                f"type '{name}' is listed under both [{cls_a}] and "
                f"[{cls_b}]; a type has exactly one ownership class",
            )

        for name, cls in sorted(manifest.classes.items()):
            defs = model.defs.get(name, ())
            header = manifest.headers.get(name, "")
            if not defs:
                report(
                    manifest.line(cls, name),
                    f"[{cls}] {name}: no scanned file defines a "
                    f"type with this name (the manifest must not "
                    f"rot)",
                )
            elif not any(t.rel == header for t in defs):
                have = ", ".join(sorted({t.rel for t in defs}))
                report(
                    manifest.line(cls, name),
                    f"[{cls}] {name}: declared header '{header}' "
                    f"does not define it (defined in: {have})",
                )

        for rel in sorted(manifest.file_defaults):
            if rel not in model.tus:
                report(
                    manifest.line("files", rel),
                    f"[files] {rel}: no such scanned file",
                )

        classes, conflicts = classify(model, manifest)
        for t, marker_cls, manifest_cls in conflicts:
            findings.append(
                Finding(
                    self.name,
                    t.rel,
                    t.marker_line or t.line,
                    f"type '{t.name}' is marked '{marker_cls}' in "
                    f"source but '{manifest_cls}' in "
                    f"{manifest.rel}; make them agree",
                )
            )

        for name in sorted(manifest.channels):
            if name not in model.defs:
                report(
                    manifest.line("channels", name),
                    f"[channels] {name}: no scanned file defines a "
                    f"type with this name",
                )
                continue
            owned = {
                classes[id(t)].cls
                for t in model.defs.get(name, ())
                if id(t) in classes
            }
            if owned and owned != {"cross-shard"}:
                report(
                    manifest.line("channels", name),
                    f"[channels] {name}: a sanctioned channel must "
                    f"classify cross-shard, not "
                    f"{', '.join(sorted(owned))}",
                )

        # Cross-check against the guarded-members work list: a type
        # accessed from several shards cannot be shard-owned.
        shared_path = (
            self.shared_types_path
            or pathlib.Path(__file__).resolve().parent
            / "shared_types.toml"
        )
        try:
            shared_types, _ = load_shared_types(shared_path)
        except (OSError, ValueError):
            shared_types = {}  # guarded-members reports this itself
        for name in sorted(shared_types):
            if manifest.classes.get(name) == "shard-owned":
                report(
                    manifest.line("shard-owned", name),
                    f"[shard-owned] {name}: also listed in "
                    f"shared_types.toml (cross-shard access), the "
                    f"classifications contradict",
                )

        if manifest.errors:
            return findings  # coverage needs a well-formed manifest
        prefixes = tuple(
            f"src/{layer}/" for layer in manifest.coverage_layers
        )
        for name in sorted(model.defs):
            for t in model.defs[name]:
                covered = t.rel.startswith(prefixes)  # () -> False
                if not covered or t.nested or id(t) in classes:
                    continue
                findings.append(
                    Finding(
                        self.name,
                        t.rel,
                        t.line,
                        f"type '{t.name}' in a covered layer has no "
                        f"ownership class; add a marker, an "
                        f"ownership.toml entry, or a [files] "
                        f"default",
                    )
                )
        return findings

    def selftest(self):
        import tempfile

        errors = []
        texts = {
            "src/os/kernel.h": (
                "namespace pcon::os {\n"
                "// pcon-lint: shard-owned\n"
                "class Kernel { int ticks_ = 0; };\n"
                "class Socket { int fd_ = 0; };\n"
                "class Pipe { int lanes_ = 0; };\n"
                "}\n"
            ),
        }
        manifest_text = (
            "[shard-owned]\n"
            'Ghost = "src/os/ghost.h"\n'
            'Socket = "src/os/kernel.h"\n'
            'Pipe = "src/os/elsewhere.h"\n'
            "[cross-shard]\n"
            'Ghost = "src/os/ghost.h"\n'
            "[host-global]\n"
            'Kernel = "src/os/kernel.h"\n'
            "[channels]\n"
            'Socket = "segment handoff"\n'
            "[files]\n"
            '"src/os/missing.h" = "value"\n'
            "[coverage]\n"
            "layers = []\n"
        )
        with tempfile.NamedTemporaryFile(
            "w", suffix=".toml", delete=False
        ) as fh:
            fh.write(manifest_text)
            manifest_path = fh.name
        try:
            rule = OwnershipRule(ownership_path=manifest_path)
            project = rule.project_from_texts(texts)
            findings = rule.run(project)
            messages = "\n".join(f.message for f in findings)
            for needle, what in [
                ("no scanned file defines", "unknown type (Ghost)"),
                ("listed under both", "dual-class listing"),
                ("does not define it", "header mismatch (Pipe)"),
                (
                    "marked 'shard-owned' in source but "
                    "'host-global'",
                    "marker/manifest conflict (Kernel)",
                ),
                ("no such scanned file", "[files] rot"),
                ("must classify cross-shard", "channel class check"),
            ]:
                if needle not in messages:
                    errors.append(
                        f"ownership selftest: missed {what} "
                        f"(no finding containing {needle!r})"
                    )
            conflict = [
                f for f in findings if "make them agree" in f.message
            ]
            if conflict and conflict[0].path != "src/os/kernel.h":
                errors.append(
                    "ownership selftest: conflict finding should "
                    "point at the in-source marker"
                )
        finally:
            pathlib.Path(manifest_path).unlink()

        # A malformed manifest is findings, never an exception.
        rule = OwnershipRule(ownership_path="/nonexistent/o.toml")
        findings = rule.run(rule.project_from_texts(texts))
        if not any(
            "cannot load ownership manifest" in f.message
            for f in findings
        ):
            errors.append(
                "ownership selftest: unreadable manifest did not "
                "become a finding"
            )

        # Coverage: a marker, nested-type inheritance and a [files]
        # default classify; only layers listed under [coverage] count.
        texts = {
            "src/os/kernel.h": (
                "namespace pcon::os {\n"
                "class PCON_SHARD_OWNED Kernel {\n"
                "    int ticks_ = 0;\n"
                "    struct Stats { int n_ = 0; };\n"
                "};\n"
                "class Orphan { int x_ = 0; };\n"
                "}\n"
            ),
            "src/hw/config.h": (
                "namespace pcon::hw {\n"
                "struct CoreConfig { int mhz_ = 0; };\n"
                "}\n"
            ),
            "src/util/misc.h": (
                "namespace pcon::util {\n"
                "class Helper { int h_ = 0; };\n"
                "}\n"
            ),
        }
        manifest_text = (
            "[files]\n"
            '"src/hw/config.h" = "value"\n'
            "[coverage]\n"
            'layers = ["os", "hw"]\n'
        )
        with tempfile.NamedTemporaryFile(
            "w", suffix=".toml", delete=False
        ) as fh:
            fh.write(manifest_text)
            manifest_path = fh.name
        try:
            rule = OwnershipRule(ownership_path=manifest_path)
            findings = rule.run(rule.project_from_texts(texts))
            got = sorted(
                (f.path, f.line, f.message.split("'")[1])
                for f in findings
            )
            if got != [("src/os/kernel.h", 6, "Orphan")]:
                errors.append(
                    f"ownership selftest: expected exactly Orphan "
                    f"uncovered at src/os/kernel.h:6, got {got} "
                    f"(marker, nested-type inheritance, [files] "
                    f"default, or layer filtering is broken)"
                )
        finally:
            pathlib.Path(manifest_path).unlink()
        return errors
