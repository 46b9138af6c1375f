"""Permission Collector and derived corpus studies: usage classification,
coverage, over-privilege and spec comparison."""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from typing import NamedTuple

from .analysis import find_sensitive_sites
from .hierarchy import ClassHierarchy
from .model import ConstStr, LinkedProgram, LoadStatic, SiteId, parse_field_id
from .permspec import GroupTable, PermissionSpec

USAGE_LABELS = {
    (True, True, True): "MCS",
    (True, True, False): "MC",
    (True, False, True): "MS",
    (False, True, True): "CS",
    (True, False, False): "M",
    (False, True, False): "C",
    (False, False, True): "S",
}


class PermissionUsage(NamedTuple):
    app: str
    labels: dict  # permission -> its USAGE_LABELS label, in permission order
    sites: dict  # permission -> its sorted code sites, then its sorted sensitive sites


def collect_usage(
    program: LinkedProgram,
    spec: PermissionSpec,
    hierarchy: ClassHierarchy,
    groups: GroupTable | None = None,
) -> PermissionUsage:
    """Label each permission by its manifest (M), code-reference (C) and
    sensitive-consumption (S) evidence, and list its C and S sites. Scans
    app + library bodies only; framework code is never counted."""
    manifest = set(program.manifest.permissions)
    known = manifest | set(spec.all_permissions())
    if groups is not None:
        known |= set(groups.group_of)
    const_class = program.config.permission_constant_class

    code_sites = defaultdict(list)
    for _decl, _m, sig in program.iter_app_bodies():
        # both kinds of constant assign a local: they are among its definitions
        for defs in program.defs_index(sig).values():
            for i, stmt in defs:
                if isinstance(stmt, ConstStr) and stmt.value in known:
                    code_sites[stmt.value].append(f"{SiteId(sig, i)} (literal)")
                elif isinstance(stmt, LoadStatic):
                    cls, fname = parse_field_id(stmt.field)
                    if cls != const_class:
                        continue
                    found = program.lookup_field(stmt.field)
                    if found is not None and found[1].constValue:
                        perm = found[1].constValue
                    else:
                        perm = f"android.permission.{fname}"
                    code_sites[perm].append(f"{SiteId(sig, i)} (constant)")

    sensitive_sites = defaultdict(list)
    for s in find_sensitive_sites(program, hierarchy, spec):
        for perm in s.permissions:
            sensitive_sites[perm].append(str(s.site))

    labels = {}
    sites = {}
    for perm in sorted(manifest | set(code_sites) | set(sensitive_sites)):
        code, sensitive = code_sites.get(perm, []), sensitive_sites.get(perm, [])
        labels[perm] = USAGE_LABELS[perm in manifest, bool(code), bool(sensitive)]
        sites[perm] = sorted(code) + sorted(sensitive)
    return PermissionUsage(app=program.name, labels=labels, sites=sites)


def _percent(num: float, den: float) -> int:
    return math.floor(num / den * 100 + 0.5)


def coverage(corpus_labels) -> tuple | None:
    """Spec coverage over a corpus: MCS / (MC + MCS), per (app, permission)
    instance. ``corpus_labels`` is an iterable of per-app label maps.
    Returns (ratio, percent), or None when there is no MC or MCS instance."""
    mcs = mc = 0
    for labels in corpus_labels:
        for label in labels.values():
            if label == "MCS":
                mcs += 1
            elif label == "MC":
                mc += 1
    return coverage_from_counts(mcs, mc)


def coverage_from_counts(mcs: int, mc: int) -> tuple | None:
    if mcs + mc == 0:
        return None
    return mcs / (mcs + mc), _percent(mcs, mcs + mc)


def overprivilege_report(corpus, groups: GroupTable) -> dict:
    """Per app, split manifest-only permissions into same-group (masked by a
    properly used permission of the same group) vs cross-group (visible to
    the user). ``corpus`` is an iterable of PermissionUsage."""
    out = {}
    for usage in sorted(corpus, key=lambda u: u.app):
        labels = usage.labels
        m_only = [p for p, label in labels.items() if label == "M"]
        used_groups = {
            groups.group(p)
            for p, label in labels.items()
            if label != "M" and groups.group(p) is not None
        }
        same, cross = [], []
        for p in m_only:
            if groups.group(p) is not None and groups.group(p) in used_groups:
                same.append(p)
            else:
                cross.append(p)
        out[usage.app] = {"same_group": same, "cross_group": cross}
    return out


def compare_specs(label_pairs, spec_a: PermissionSpec, spec_b: PermissionSpec):
    """Coverage-style comparison of two specs over one corpus: MCS instance
    counts, distinct covered permissions, and a key diff. ``label_pairs``
    holds, per app, the label maps of its usage under spec_a and under
    spec_b."""
    stats = {}
    for side, name in enumerate("ab"):
        covered = [
            perm
            for pair in label_pairs
            for perm, label in pair[side].items()
            if label == "MCS"
        ]
        stats[name] = {
            "mcs_instances": len(covered),
            "permissions_covered": len(set(covered)),
            "permissions": sorted(set(covered)),
        }
    keys_a, keys_b = set(spec_a.entries), set(spec_b.entries)
    conflicting = sorted(
        k
        for k in keys_a & keys_b
        if spec_a.entries[k].permissions != spec_b.entries[k].permissions
    )
    return {
        "a": stats["a"],
        "b": stats["b"],
        "diff": {
            "common": sorted(k[1] for k in keys_a & keys_b),
            "unique_to_a": sorted(k[1] for k in keys_a - keys_b),
            "unique_to_b": sorted(k[1] for k in keys_b - keys_a),
            "conflicting": [k[1] for k in conflicting],
        },
    }


# ---------------------------------------------------------------------------
# corpus output


def usage_csv(corpus, groups: GroupTable | None = None) -> str:
    """CSV with one row per (app, permission): app,permission,label,group,sites."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["app", "permission", "label", "group", "sites"])
    for usage in sorted(corpus, key=lambda u: u.app):
        for perm, label in usage.labels.items():
            group = (groups.group(perm) or "") if groups else ""
            writer.writerow([usage.app, perm, label, group, ";".join(usage.sites[perm])])
    return buf.getvalue()


def corpus_summary(corpus, groups: GroupTable | None = None) -> dict:
    label_maps = [u.labels for u in corpus]
    counts = defaultdict(int)
    for labels in label_maps:
        for label in labels.values():
            counts[label] += 1
    summary = {"apps": len(label_maps), "instances": dict(sorted(counts.items()))}
    cov = coverage(label_maps)
    summary["coverage"] = None if cov is None else {"ratio": cov[0], "percent": cov[1]}
    if groups is not None:
        summary["overprivilege"] = overprivilege_report(corpus, groups)
    return summary
