"""Batch command-line surface: build, amenability, paradoxicalize, check.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 budget exhausted or matching inconclusive.  An input error is an
:class:`~riverscape.patterns.InputError`, raised by the flag parsers
here and by the file parsers; any other exception is a bug and
propagates with its traceback, so Python exits 1.

Start-up is a fixed share of every command, and without a bytecode cache
each process compiles every module it imports.  So the top of this
module imports only what every command needs, and each ``cmd_*``
imports the modules it runs: ``check`` never loads the labelings, the
landscapes or the matcher, and ``amenability`` never loads the matcher.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .groups import GroupSpec

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3

MIN_RIVER_RADIUS = 2


def parse_group(text: str) -> GroupSpec:
    from .groups import FreeGroup, IntegerGroup
    from .patterns import InputError

    t = text.strip().lower()
    if t in ("z", "int", "integers"):
        return IntegerGroup()
    for prefix in ("f", "free:"):
        rank = t[len(prefix):]
        if t.startswith(prefix) and rank.isdigit() and int(rank) >= 1:
            return FreeGroup(int(rank))
    raise InputError(f"unknown group {text!r}; use z, f2, or free:<rank>")


def parse_ints(text: str, flag: str) -> list[int]:
    """The comma-separated integers of ``text``, empty entries skipped;
    an entry that is not an integer is an input error naming ``flag``."""
    from .patterns import InputError

    out = []
    for x in text.split(","):
        if x:
            try:
                out.append(int(x))
            except ValueError:
                raise InputError(
                    f"{flag}: {x!r} is not an integer") from None
    return out


def make_landscape(name: str, spec: GroupSpec, radius: int):
    from .landscapes import (AnchorSet, FractalLandscape, RiverLandscape,
                             TernaryLandscape)
    from .patterns import InputError

    name = name.strip().lower()
    if name == "river":
        if spec.kind != "free" or spec.rank < 2:
            raise InputError("the river landscape needs a free group f2+")
        if radius < MIN_RIVER_RADIUS:
            raise InputError(
                f"radius {radius} too small for the river landscape; "
                f"minimal radius is {MIN_RIVER_RADIUS}"
            )
        return RiverLandscape(spec)
    if name == "ternary":
        if spec.kind != "integers":
            raise InputError("the ternary landscape lives on z")
        return TernaryLandscape(spec)
    if name == "fractal":
        # default anchors at distances 3 * 10^i that fit the window
        anchors = []
        i = 0
        while 3 * 10**i <= radius:
            if spec.kind == "integers":
                anchors.append(3 * 10**i)
            else:
                anchors.append((1,) * (3 * 10**i))
            i += 1
        if not anchors:
            raise InputError(
                "radius too small for the fractal landscape; "
                "minimal radius is 3"
            )
        return FractalLandscape(spec, AnchorSet(spec, tuple(anchors)))
    raise InputError(f"unknown landscape {name!r}")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build(args) -> int:
    from .groups import ball
    from .labels import separation_index
    from .landscapes import components_leq, verify_axioms
    from .snapshots import dump_json, snapshot_landscape

    spec = parse_group(args.group)
    z = make_landscape(args.landscape, spec, args.radius)
    window = ball(spec, args.radius, budget=args.budget_vertices)
    report = verify_axioms(z, window)
    out = _outdir(args)
    dump_json(snapshot_landscape(z, window, separation_index(spec, 2)),
              out / "snapshot.json")
    print(f"window: {len(window)} vertices at radius {window.radius}")
    print(f"axioms: {'pass' if report.passed else 'FAIL'}")
    for key, table in (("M", report.constants.M), ("N", report.constants.N),
                       ("S", report.constants.S)):
        row = ", ".join(f"{key}[{k}]={v}" for k, v in sorted(table.items()))
        print(f"  {row}" if row else f"  {key}: (empty)")
    if args.landscape == "ternary":
        for n in (1, 2):
            comp = components_leq(z, window, n)
            print(f"  Q[{n}]={comp.max_interior_size}")
    for v in report.violations:
        print(f"  violation: {v}")
    print(f"uncertified: {report.uncertified}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _m_values(args) -> list[int]:
    """The m of the defect table, ascending and distinct (none without
    --m-values).  An m below 1 is an input error."""
    from .patterns import InputError

    m_values = sorted(set(parse_ints(args.m_values, "--m-values")))
    if m_values and m_values[0] < 1:
        raise InputError(f"--m-values must be >= 1, got {m_values[0]}")
    return m_values


def cmd_amenability(args) -> int:
    from .groups import ball
    from .witness import defect_table, write_defects

    m_values = _m_values(args)
    spec = parse_group(args.group)
    z = make_landscape("river", spec, args.radius)
    window = ball(spec, args.radius, budget=args.budget_vertices)
    # the columns first, so an error cannot leave a truncated file
    table = defect_table(z, window)
    out = _outdir(args)
    with open(out / "defects.csv", "w", newline="") as fh:
        rows, violated = write_defects(fh, window, table, m_values)
    print(f"defect rows: {rows}; bound violations: {violated}")
    return EXIT_OK if violated == 0 else EXIT_VERIFY_FAIL


def cmd_paradoxicalize(args) -> int:
    from .groups import ball
    from .paradox import paradoxicalize_sequence
    from .patterns import (InputError, LocalSetSpec, center_height_local_set,
                           json_expect)
    from .snapshots import (bundle_pipeline, dump_json, final_snapshot,
                            load_json)

    spec = parse_group(args.group)
    z = make_landscape(args.landscape, spec, args.radius)
    window = ball(spec, args.radius, budget=args.budget_vertices)
    targets = []
    if args.targets:
        targets.extend(map(LocalSetSpec.from_dict, json_expect(
            load_json(args.targets), list, "targets file")))
        for i, target in enumerate(targets):
            if target.m > window.radius:
                raise InputError(f"target {i}: m = {target.m} exceeds the "
                                 f"window radius {window.radius}")
    if args.target_heights:
        if window.radius < 1:
            raise InputError("--target-heights reads radius-1 patterns; "
                             "the window radius must be >= 1")
        for item in args.target_heights.split(";"):
            heights = frozenset(parse_ints(item, "--target-heights"))

            def make(heights=heights):
                return lambda rule, win: center_height_local_set(
                    rule, win, 1, heights, prefix_len=1
                )

            targets.append(make())
    if not targets:
        raise InputError("no targets given (--targets or --target-heights)")
    result = paradoxicalize_sequence(z, targets, window,
                                     k_ceiling=args.k_ceiling)
    out = _outdir(args)
    dump_json(bundle_pipeline(result), out / "certificates.json")
    dump_json(final_snapshot(result, window), out / "final_snapshot.json")
    for i, report in enumerate(result.reports):
        print(f"certificate {i}: {'pass' if report.passed else 'FAIL'}")
    if result.halted:
        print(f"halted: {result.halted}")
        return EXIT_INCONCLUSIVE
    # the matrix diagonal is the certificates' own reports
    if not result.matrix_all_pass():
        return EXIT_VERIFY_FAIL
    print(f"matrix: {len(result.matrix)}x{len(result.matrix)} all-pass")
    return EXIT_OK


def cmd_check(args) -> int:
    from .checking import (bundle_certificates, bundle_halted,
                           check_certificate_dict, load_snapshot)
    from .patterns import InputError
    from .snapshots import load_json

    snapshot = load_snapshot(load_json(args.snapshot))
    bundle = load_json(args.certificate)
    certificates = bundle_certificates(bundle)
    halted = bundle_halted(bundle)
    all_pass = True
    for i, cert_obj in enumerate(certificates):
        try:
            report = check_certificate_dict(snapshot, cert_obj)
        except InputError as exc:
            raise InputError(f"certificate {i}: {exc}") from None
        status = "pass" if report.passed else "FAIL"
        print(f"certificate {i}: {status}")
        for clause in report.clauses:
            if not clause.passed:
                print(f"  clause {clause.name}: {clause.witness}")
        all_pass &= report.passed
    if halted is not None:
        print(f"halted: {halted}")
        return EXIT_INCONCLUSIVE
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    from .groups import DEFAULT_VERTEX_BUDGET

    parser = argparse.ArgumentParser(
        prog="riverscape",
        description="Window-scale landscape construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", default="f2")
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--budget-vertices", type=int,
                       default=DEFAULT_VERTEX_BUDGET)

    p = sub.add_parser("build", help="build a landscape snapshot")
    common(p)
    p.add_argument("--landscape", default="river")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("amenability", help="defect table for the river")
    common(p)
    p.add_argument("--m-values", default="")
    p.set_defaults(func=cmd_amenability)

    p = sub.add_parser("paradoxicalize", help="run the doubling pipeline")
    common(p)
    p.add_argument("--landscape", default="river")
    p.add_argument("--targets", default="")
    p.add_argument("--target-heights", default="",
                   help="semicolon-separated height lists, e.g. '1;2'")
    p.add_argument("--k-ceiling", type=int, default=8)
    p.set_defaults(func=cmd_paradoxicalize)

    p = sub.add_parser("check", help="re-verify a certificate bundle")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    from .groups import BudgetExceededError
    from .patterns import InputError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
