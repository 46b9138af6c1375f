"""Batch command-line front end.

Exit codes: 0 success, 1 analysis-input error, 2 usage error. Diagnostics
go to stderr; outputs to files or stdout only.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import pickle
import sys
import traceback
from pathlib import Path

from . import collector, permspec, pipeline
from .analysis import (
    Limits, cha_reach_partition, detected_sensitives, traverse, write_json, write_report,
)
from .errors import PermplaceError
from .hierarchy import build_hierarchy
from .model import LinkConfig, from_dict, link_program, load_app, read_json


def _load_config(args) -> LinkConfig:
    config = LinkConfig()
    if args.config:
        config = from_dict(LinkConfig, read_json(args.config), args.config)
    flags = {key: getattr(args, key) for key in ("framework_prefixes", "async_excludes")}
    return config._replace(**{key: names for key, names in flags.items() if names})


def _emit(data: bytes, out_path):
    """Write ``data`` to ``out_path``, or to stdout's bytes layer whatever
    its text encoding; a stdout with no bytes layer gets the text."""
    if out_path not in (None, "-"):
        Path(out_path).write_bytes(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _add_common(p, spec: bool = False, groups: bool = False):
    """The link inputs and ``-o`` every command reads, with ``--spec`` and
    ``--groups`` for the commands that read them."""
    if spec:
        p.add_argument("--spec", action="append", default=[], help="permission spec file")
    if groups:
        p.add_argument("--groups", help="dangerous-group table (groups.json)")
    p.add_argument("--framework", action="append", default=[], help="framework model overlay")
    p.add_argument("--overlay", action="append", default=[], help="library overlay")
    p.add_argument("--config", help="JSON config file mirroring flags")
    p.add_argument("--framework-prefixes", type=_names, help="comma-separated package prefixes")
    p.add_argument("--async-excludes", type=_names, help="comma-separated async-construct classes")
    p.add_argument("-o", "--output", help="output path (default stdout)")


def _load_specs(args):
    spec = permspec.PermissionSpec(entries={})
    for path in args.spec:
        loaded = permspec.load_spec(path)
        spec = permspec.merge_specs(spec, loaded)
    if getattr(args, "dangerous_only", False):
        if not args.groups:
            raise PermplaceError("--dangerous-only requires --groups")
        spec = permspec.filter_dangerous(spec, permspec.load_groups(args.groups))
    return spec


def _names(text: str) -> tuple:
    """Type of the comma-separated name flags; argparse names the flag on error."""
    names = tuple(text.split(","))
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty name in {text!r}")
    return names


def _non_negative_int(text: str) -> int:
    """Type of the cap flags; argparse names the flag on error."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at its first call."""
    parser = argparse.ArgumentParser(
        prog="permplace",
        description="Recommend runtime-permission request insertion points; audit permission usage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report per-callback permission request insertion points")
    p.add_argument("app", help="app model file")
    _add_common(p, spec=True, groups=True)
    p.add_argument("--cfa", type=int, choices=(0, 1), default=1)
    p.add_argument("--no-augment", action="store_true", help="disable safe-edge augmentation")
    p.add_argument("--max-depth", type=_non_negative_int, default=Limits().maxDepth)
    p.add_argument("--max-paths", type=_non_negative_int, default=Limits().maxPathsPerSensitive)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--dump-callgraph", help="write call graph edges as JSON")
    p.add_argument("--dangerous-only", action="store_true",
                   help="filter the spec to dangerous permissions first")

    p = sub.add_parser("collect", help="permission usage audit over a corpus directory")
    p.add_argument("corpus", help="directory of app model files")
    _add_common(p, spec=True, groups=True)
    p.add_argument("--summary", help="write summary JSON here")
    p.add_argument("--dangerous-only", action="store_true")

    p = sub.add_parser("cha-reach", help="partition sensitives by CHA reachability")
    p.add_argument("app")
    _add_common(p, spec=True)
    p.add_argument("--cfa", type=int, choices=(0, 1), default=1)
    p.add_argument("--no-augment", action="store_true")

    p = sub.add_parser("compare-specs", help="coverage comparison of two specs over a corpus")
    p.add_argument("corpus")
    p.add_argument("--spec-a", required=True)
    p.add_argument("--spec-b", required=True)
    _add_common(p, groups=True)

    p = sub.add_parser("mine-doc", help="mine permission candidates from framework doc comments")
    p.add_argument("app", help="app or framework model file")
    _add_common(p)
    p.add_argument("--ident-table", required=True,
                   help="JSON map identifier -> {permission, unique}")

    p = sub.add_parser("spec", help="spec file utilities")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)
    v = spec_sub.add_parser("validate")
    v.add_argument("file")
    m = spec_sub.add_parser("merge")
    m.add_argument("a")
    m.add_argument("b")
    m.add_argument("-o", "--output", help="output path (default stdout)")
    return parser


def _cpu_count() -> int:
    """CPUs the process may run on; 1 where it cannot fork or cannot tell."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _corpus_map(args, config: LinkConfig, per_app) -> list:
    """``per_app(program, hierarchy)`` for each app of the corpus, linked
    with the overlays, in sorted path order.

    The apps are dealt into one strided share per CPU. Shares past the
    first run in forked children, each sending its pickled results back
    over a pipe and leaving through ``os._exit``; a child that crashes
    sends its traceback text and a non-zero status instead. Results are
    merged by app index, so the output does not depend on the split, and
    the first app to fail in path order fails the command. Forking copies
    only the calling thread, so the caller runs no other threads."""
    interned = {}  # the overlays' statements; each share reads on into its own copy
    overlays = [load_app(p, interned) for p in args.framework + args.overlay]
    paths = sorted(Path(args.corpus).glob("*.json"))
    if not paths:
        raise PermplaceError(f"no app model files in {args.corpus}")
    n = min(_cpu_count(), len(paths))

    def share(k) -> list:
        """(index, result, None) for each app of share ``k`` in turn; the
        first app that fails ends the list as (index, None, message)."""
        done = []
        for i in range(k, len(paths), n):
            try:
                program = link_program(load_app(paths[i], interned), overlays, config)
                done.append((i, per_app(program, build_hierarchy(program)), None))
            except (PermplaceError, OSError) as exc:
                done.append((i, None, str(exc)))
                break
        return done

    readers = {}  # child pid -> read end of its pipe
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: never returns into the caller's frames
                status = 1
                try:
                    try:
                        os.close(r)
                        for sibling in readers.values():
                            sibling.close()
                        payload = pickle.dumps(share(k))
                        status = 0
                    except BaseException:  # interrupts too: the parent gets them as text
                        payload = traceback.format_exc().encode("utf-8", "replace")
                    with open(w, "wb") as out:
                        out.write(payload)
                finally:
                    os._exit(status)
            os.close(w)
            readers[pid] = open(r, "rb")
        done = share(0)
        for pid, reader in list(readers.items()):
            payload = reader.read()
            reader.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del readers[pid]
            if status:
                text = payload.decode("utf-8", "replace")
                raise RuntimeError(f"corpus share in child {pid} failed (status {status}):\n{text}")
            done += pickle.loads(payload)
    finally:
        for reader in readers.values():
            reader.close()
        for pid in readers:
            os.waitpid(pid, 0)
    results = []
    for _i, result, error in sorted(done, key=lambda entry: entry[0]):
        if error is not None:
            raise PermplaceError(error)
        results.append(result)
    return results


def _prepare(args) -> pipeline.Prepared:
    return pipeline.prepare_paths(
        args.app,
        overlay_paths=args.framework + args.overlay,
        config=_load_config(args),
        spec=_load_specs(args),
        augment=not args.no_augment,
    )


def _cmd_analyze(args) -> int:
    prepared = _prepare(args)
    report = traverse(
        prepared,
        mode=f"cfa{args.cfa}",
        limits=Limits(maxDepth=args.max_depth, maxPathsPerSensitive=args.max_paths),
    )
    _emit(write_report(report, args.format), args.output)
    if args.dump_callgraph:
        dump = [
            {"site": str(site), "target": target, "provenance": prov}
            for site in sorted(prepared.cg.edges)
            for target, prov in sorted(prepared.cg.edges[site])
        ]
        Path(args.dump_callgraph).write_bytes(write_json(dump))
    return 0


def _cmd_collect(args) -> int:
    config = _load_config(args)
    spec = _load_specs(args)
    groups = permspec.load_groups(args.groups) if args.groups else None
    corpus = _corpus_map(
        args, config,
        lambda program, hierarchy: collector.collect_usage(program, spec, hierarchy, groups),
    )
    _emit(collector.usage_csv(corpus, groups).encode("utf-8"), args.output)
    if args.summary:
        summary = collector.corpus_summary(corpus, groups)
        Path(args.summary).write_bytes(write_json(summary))
    return 0


def _cmd_cha_reach(args) -> int:
    prepared = _prepare(args)
    report = traverse(prepared, mode=f"cfa{args.cfa}")
    partition = cha_reach_partition(prepared, detected_sensitives(report))
    out = {
        name: [
            {"site": str(s.site), "kind": s.kind, "permissions": sorted(s.permissions)}
            for s in members
        ]
        for name, members in partition.items()
    }
    _emit(write_json(out), args.output)
    return 0


def _cmd_compare_specs(args) -> int:
    config = _load_config(args)
    spec_a = permspec.load_spec(args.spec_a)
    spec_b = permspec.load_spec(args.spec_b)
    groups = permspec.load_groups(args.groups) if args.groups else None
    label_pairs = _corpus_map(args, config, lambda program, hierarchy: tuple(
        collector.collect_usage(program, spec, hierarchy, groups).labels
        for spec in (spec_a, spec_b)
    ))
    result = collector.compare_specs(label_pairs, spec_a, spec_b)
    _emit(write_json(result), args.output)
    return 0


def _cmd_mine_doc(args) -> int:
    config = _load_config(args)
    overlays = [load_app(p) for p in args.framework + args.overlay]
    program = link_program(load_app(args.app), overlays, config)
    table = permspec.load_ident_table(args.ident_table)
    candidates = permspec.mine_doc_candidates(program, table)
    _emit(permspec.candidates_to_csv(candidates).encode("utf-8"), args.output)
    return 0


def _cmd_spec(args) -> int:
    if args.spec_command == "validate":
        spec = permspec.load_spec(args.file)
        print(f"{args.file}: {len(spec)} entries, OK", file=sys.stderr)
        return 0
    a = permspec.load_spec(args.a)
    b = permspec.load_spec(args.b)
    merged = permspec.merge_specs(a, b)
    common = len(a) + len(b) - len(merged)
    print(
        f"merged: {len(merged)} entries "
        f"(common {common}, a-only {len(a) - common}, b-only {len(b) - common})",
        file=sys.stderr,
    )
    _emit(write_json(permspec.spec_to_list(merged)), args.output)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "collect": _cmd_collect,
    "cha-reach": _cmd_cha_reach,
    "compare-specs": _cmd_compare_specs,
    "mine-doc": _cmd_mine_doc,
    "spec": _cmd_spec,
}


def run(argv=None) -> int:
    """Run one command. The cyclic collector is paused while it runs: the
    pipeline creates no reference cycles (tests/test_no_cycles.py), so a
    collection would free nothing and only walk the heap."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (PermplaceError, OSError) as exc:
        print(f"permplace: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
