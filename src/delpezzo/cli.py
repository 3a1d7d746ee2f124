"""Command-line front end: classification runs, single-type verification,
toric computations, dual-graph export, and audit sweeps.

Exit codes: 0 on success (and catalog match, or no comparison below
index 4 / clean audit / all certificates passing), 1 on a verification
failure (such as an ``UNEXPECTED`` survivor or a ``MISSING`` catalog
configuration), 2 on flag errors and on an output file that cannot be
written, 3 on a ``SearchExplosion``, ``InternalConsistencyError`` or
``CanonicalizationError``, 141 when the reader of stdout closes it early;
errors 2 and 3 go to stderr, as JSON under --json, and keep their exit
code when stderr's reader has closed it.  ``audit`` refuses, as a flag
error, a sweep of more than ``AUDIT_WINDOW_CAP`` (2^22) windows (n, h0),
which would take about 4.5 s or more.  ``classify`` refuses, as a flag
error, an index above ``CLASSIFY_INDEX_CAP`` (2^18 = 262,144), where it
takes about 0.2 s and 30 MB, and 2 s and 75 MB with --json.
Volumes are always printed as exact fractions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import TYPE_NAMES, build_entry_ladder, entries_for_type
from .enumerator import SearchExplosion, audit, canonical_form, check_audit_sweep, check_classify_index, classify
from .enumerator import CLASSIFY_INDEX_CAP  # not used here; named in the docstring and tests
from .graphs import CanonicalizationError
from .multiplet import (
    InternalConsistencyError,
    certificate_index_is_a,
    certify_ladder,
    identities_check,
    local_lemma_checks,
)
from .toric import (
    _FAMILIES,
    anticanonical_square,
    gorenstein_index,
    hj_resolve,
    family_fan,
)


class FlagError(Exception):
    pass


def _write(path: str, payload: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise FlagError(f"cannot write {path}: {exc.strerror or exc}") from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _to_devnull(stream) -> None:
    """Point a stream whose reader closed the pipe at devnull, so that what
    is still buffered goes there at exit."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _cmd_classify(args) -> int:
    try:
        check_classify_index(args.a)
    except ValueError as exc:
        raise FlagError(str(exc)) from None
    report = classify(args.a)
    sys.stdout.write(report.to_text())
    if args.json:
        _write(args.json, _json_text(report.to_json()))
    return 1 if report.catalog_match is False else 0  # None below index 4: not tested


def _type_entries(args):
    if args.type not in TYPE_NAMES:
        raise FlagError(f"unknown type {args.type!r}; expected one of {', '.join(TYPE_NAMES)}")
    try:
        return entries_for_type(args.a, args.type)
    except KeyError:
        raise FlagError(f"type {args.type} does not exist at index {args.a}") from None


def _cmd_verify_type(args) -> int:
    entries = _type_entries(args)
    all_ok = True
    for entry in entries:
        for idx in range(len(entry.configs)):
            ladder = build_entry_ladder(entry, args.a, idx)
            report = certify_ladder(ladder)
            vol = ladder.volume
            pair = ladder.bottom_pair
            idx_val = pair.index
            lemma_violations = local_lemma_checks(ladder)
            idents = identities_check(ladder)
            index_certificate = certificate_index_is_a(pair)
            ok = (
                report.passed
                and idents
                and not lemma_violations
                and vol == entry.volume
                and idx_val == args.a
                and index_certificate
            )
            all_ok = all_ok and ok
            print(f"{entry.name} configuration {idx + 1}/{len(entry.configs)}")
            print(f"  volume {vol}  index {idx_val}")
            print(f"  certificates: {'pass' if report.passed else 'FAIL ' + ','.join(report.failures)}")
            print(f"  identities: {'pass' if idents else 'FAIL'}")
            print(f"  index certificate: {'pass' if index_certificate else 'FAIL'}")
            if lemma_violations:
                for v in lemma_violations:
                    print(f"  local check FAIL: {v}")
            else:
                print("  local checks: pass")
            print(f"  canonical key: {canonical_form(pair)}")
    return 0 if all_ok else 1


def _cmd_toric(args) -> int:
    if args.family not in _FAMILIES:
        raise FlagError(f"unknown family {args.family!r}; expected one of {', '.join(_FAMILIES)}")
    if args.family == "P113" and args.a != 3:
        raise FlagError("family P113 is the index-3 model; pass --a 3")
    fan = family_fan(args.family, args.a)
    res = hj_resolve(fan)
    vol = anticanonical_square(fan)
    idx = gorenstein_index(fan)
    print(f"family {args.family} at a={args.a}")
    print(f"  rays: {', '.join(str(r) for r in fan.rays)}")
    ins = res.inserted_rays()
    if ins:
        for r in ins:
            d = res.discrepancies[r]
            print(f"  inserted ray {r}: discrepancy {d}, "
                  f"relative anticanonical coefficient {-args.a * d}")
    else:
        print("  already smooth, no insertions")
    print(f"  volume {vol}")
    print(f"  index {idx}")
    if args.json:
        _write(args.json, _json_text(res.report_json(args.a)))
    return 0


def _cmd_dualgraph(args) -> int:
    entries = _type_entries(args)
    configs = [(entry, idx) for entry in entries for idx in range(len(entry.configs))]
    if not 1 <= args.config <= len(configs):
        raise FlagError(
            f"type {args.type} has {len(configs)} configuration(s) at index {args.a}; "
            f"--config must be in 1..{len(configs)}"
        )
    entry, idx = configs[args.config - 1]
    graph = build_entry_ladder(entry, args.a, idx).bottom_pair.divisor_graph
    if args.format == "dot":
        payload = graph.to_dot()
    else:
        payload = _json_text(
            {
                "vertices": [
                    {"name": name, "self_intersection": s, "coeff": c}
                    for name, (s, c) in zip(graph.names, graph.weights)
                ],
                "edges": [list(e) for e in graph.edges],
            }
        )
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        _write(args.out, payload)
    return 0


def _cmd_audit(args) -> int:
    try:
        check_audit_sweep(args.a, args.nmax, args.h0)
    except ValueError as exc:
        raise FlagError(str(exc)) from None
    report = audit(args.a, args.nmax, h0=args.h0)
    sys.stdout.write(report.to_text())
    if args.json:
        _write(args.json, _json_text(report.to_json()))
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="exact classification of large-volume log del Pezzo surfaces of fixed index",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate and compare against the catalog")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-type", help="certify one catalog type")
    p.add_argument("--type", type=str, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=_cmd_verify_type)

    p = sub.add_parser("toric", help="resolve and measure a toric model")
    p.add_argument("--family", type=str, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=_cmd_toric)

    p = sub.add_parser("dualgraph", help="export the dual graph of a type's divisor")
    p.add_argument("--type", type=str, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--format", type=str, choices=("dot", "json"), default="dot")
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--config", type=int, default=1, help="configuration number for split types")
    p.set_defaults(func=_cmd_dualgraph)

    p = sub.add_parser("audit", help="sweep the excluded cells and re-verify the kills")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--h0", type=int, default=None)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on flag errors already
        return int(exc.code or 0)
    emit_json = getattr(args, "json", None)
    try:
        if getattr(args, "a", 2) < 2:
            raise FlagError("the index must be at least 2")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed
    except (FlagError, SearchExplosion, InternalConsistencyError, CanonicalizationError) as exc:
        msg = json.dumps({"error": str(exc)}) if emit_json else f"error: {exc}"
        try:
            sys.stderr.write(msg + "\n")
            sys.stderr.flush()
        except BrokenPipeError:  # the exit code still tells which error it was
            _to_devnull(sys.stderr)
        return 2 if isinstance(exc, FlagError) else 3


if __name__ == "__main__":
    sys.exit(main())
