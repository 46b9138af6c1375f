import pytest

from permplace import collector
from permplace.analysis import find_sensitive_sites
from permplace.collector import (
    collect_usage,
    coverage,
    coverage_from_counts,
    overprivilege_report,
    usage_csv,
)
from permplace.hierarchy import build_hierarchy
from permplace.model import link_program, load_app

FINE = "android.permission.ACCESS_FINE_LOCATION"
COARSE = "android.permission.ACCESS_COARSE_LOCATION"
CAMERA = "android.permission.CAMERA"
CONTACTS = "android.permission.READ_CONTACTS"
AUDIO = "android.permission.RECORD_AUDIO"


CODE_SITE = (" (literal)", " (constant)")  # how a code site's text ends


@pytest.fixture(scope="module")
def programs(fixtures_dir, framework):
    """App name -> linked program, for each app of the fixture corpus."""
    out = {}
    for path in sorted((fixtures_dir / "corpus").glob("*.json")):
        program = link_program(load_app(path), [framework])
        out[program.name] = program
    return out


@pytest.fixture(scope="module")
def corpus(programs, spec, groups):
    return [
        collect_usage(program, spec, build_hierarchy(program), groups)
        for program in programs.values()
    ]


@pytest.fixture(scope="module")
def labels(corpus):
    return {u.app: u.labels for u in corpus}


def test_corpus_labels(labels):
    assert labels["alpha"] == {FINE: "MCS"}
    assert labels["bravo"] == {CAMERA: "MC"}
    assert labels["charlie"] == {COARSE: "MCS", FINE: "M"}
    assert labels["delta"] == {CONTACTS: "M"}
    assert labels["echo"] == {AUDIO: "MS"}


def test_label_table_is_a_bijection():
    from permplace.collector import USAGE_LABELS

    assert len(set(USAGE_LABELS.values())) == len(USAGE_LABELS) == 7
    assert (False, False, False) not in USAGE_LABELS


def test_flags_back_labels(programs, corpus, spec):
    """Each label's letters agree with the manifest, the code sites and the
    sensitive sites of its permission; its sites list the code sites, then
    the sensitive ones, each sorted."""
    for usage in corpus:
        program = programs[usage.app]
        sensitive = {}
        for s in find_sensitive_sites(program, build_hierarchy(program), spec):
            for perm in s.permissions:
                sensitive.setdefault(perm, set()).add(str(s.site))
        assert set(usage.labels) == set(usage.sites) >= set(sensitive)
        for perm, label in usage.labels.items():
            code = [x for x in usage.sites[perm] if x.endswith(CODE_SITE)]
            consumed = [x for x in usage.sites[perm] if not x.endswith(CODE_SITE)]
            assert usage.sites[perm] == sorted(code) + sorted(consumed)
            assert set(consumed) == sensitive.get(perm, set())
            evidence = (perm in program.manifest.permissions, bool(code), bool(consumed))
            assert label == "".join(c for c, on in zip("MCS", evidence) if on)
        assert list(usage.labels) == sorted(usage.labels)


def test_sites_recorded_for_code_evidence(corpus):
    alpha = next(u for u in corpus if u.app == "alpha")
    assert any(x.endswith(CODE_SITE) for x in alpha.sites[FINE])
    assert not all(x.endswith(CODE_SITE) for x in alpha.sites[FINE])


def test_framework_bodies_never_counted(framework, spec, groups):
    from permplace.model import app_from_dict

    bare = app_from_dict(
        {"name": "bare", "manifest": {"targetApi": 23, "permissions": []}, "classes": []}
    )
    program = link_program(bare, [framework])
    usage = collect_usage(program, spec, build_hierarchy(program), groups)
    assert usage.labels == usage.sites == {}


def test_coverage_on_corpus(labels):
    ratio, pct = coverage(labels.values())
    # hand count: alpha + charlie give MCS, bravo gives MC
    assert ratio == pytest.approx(2 / 3)
    assert pct == 67


def test_coverage_from_counts_rounding():
    assert coverage_from_counts(1, 2)[1] == 33
    assert coverage_from_counts(1, 1)[1] == 50
    assert coverage_from_counts(167, 333)[1] == 33  # floor(x*100 + 0.5)
    assert coverage_from_counts(5, 0) == (1.0, 100)


def test_coverage_undefined():
    assert coverage([{"p": "MS"}, {"q": "M"}]) is None
    assert coverage_from_counts(0, 0) is None


def test_overprivilege(corpus, groups):
    report = overprivilege_report(corpus, groups)
    # charlie holds FINE unused but exercises COARSE of the same group
    assert report["charlie"] == {"same_group": [FINE], "cross_group": []}
    # delta's contacts permission has no sibling usage at all
    assert report["delta"] == {"same_group": [], "cross_group": [CONTACTS]}
    assert report["alpha"] == {"same_group": [], "cross_group": []}


def test_usage_csv_shape(corpus, groups):
    text = usage_csv(corpus, groups)
    lines = text.strip().split("\n")
    assert lines[0] == "app,permission,label,group,sites"
    n_perms = sum(len(u.labels) for u in corpus)
    assert len(lines) == 1 + n_perms
    assert any(line.startswith(f"charlie,{FINE},M,location,") for line in lines)


def test_corpus_summary(corpus, groups):
    summary = collector.corpus_summary(corpus, groups)
    assert summary["apps"] == 5
    assert summary["instances"] == {"M": 2, "MC": 1, "MCS": 2, "MS": 1}
    assert summary["coverage"]["percent"] == 67


def test_compare_specs_prefers_richer_spec(fixtures_dir, framework, spec, groups):
    from permplace.permspec import PermissionSpec, spec_from_list

    small = spec_from_list(
        [
            {
                "kind": "method",
                "key": "android.location.LocationManager#getLastKnownLocation(java.lang.String)",
                "permissions": [FINE],
            }
        ]
    )
    label_pairs = []
    for path in sorted((fixtures_dir / "corpus").glob("*.json")):
        program = link_program(load_app(path), [framework])
        hierarchy = build_hierarchy(program)
        label_pairs.append(tuple(
            collector.collect_usage(program, s, hierarchy, groups).labels
            for s in (spec, small)
        ))
    result = collector.compare_specs(label_pairs, spec, small)
    assert result["a"]["mcs_instances"] >= result["b"]["mcs_instances"]
    assert result["a"]["permissions_covered"] == 2
    assert result["b"]["permissions_covered"] == 1
    assert result["diff"]["unique_to_b"] == []
    assert len(result["diff"]["common"]) == 1
