"""Command-line surface.

Subcommands: series, xn, split, flags, restrict, tables, verify.  All
numeric output is exact (integers or cyclotomic coefficient vectors),
TSV uses tab separators without quoting, JSON is canonical (sorted
keys), and identical invocations produce byte-identical output.  The
flag-enumeration budget is fixed (varieties.DEFAULT_BUDGET); orbit ids
(flags --orbits) come from generators of the centralizer's unit group
and need no budget of their own.

Each subcommand checks its usage first, then hands --q as given to the
library, whose entry points factor it once (ffield.prime_power) before
any other work: a q that is not a prime power is refused even where
only a header would print.

Exit status: 0 on success, 1 on verification failure, refusal or an
--output path that cannot be written (with a machine-readable report),
2 on usage errors, 3 when an internal invariant fails (one JSON line on
stderr naming AssertionError and its message).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import partitions as pt
from . import restriction as rs
from . import series as sr
from . import split as sp
from . import tables as tb
from . import varieties as vr


def partition(text: str) -> tuple[int, ...]:
    """The --lambda type: comma-separated integers, "" for the empty partition.
    Parts out of order or not positive are left to pt.check_partition's refusal."""
    return tuple(int(x) for x in text.split(",")) if text else ()


def _emit(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mat_str(K, m) -> str:
    return json.dumps([[K.serialize_element(c) for c in row] for row in m])


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(args) -> int:
    lines = []
    if args.group == "spin":
        if args.N is None:
            args.parser.error("--group spin needs --N")
        _unused(args, "--group spin", "q", "n")
        lines.append("d\tlevi_type\tweyl_rank")
        for c in sr.enumerate_spin_series(args.N):
            lines.append(f"{c.d}\t{c.levi_type}\t{c.weyl_rank}")
    else:
        if args.n is None or args.q is None:
            args.parser.error("--group sl needs --n and --q")
        _unused(args, "--group sl", "N")
        lines.append("d\tf_rational")
        for c in sr.enumerate_sl_series(args.n, args.q):
            lines.append(f"{c.d}\t{str(c.f_rational).lower()}")
    _emit(lines, args.output)
    return 0


def cmd_xn(args) -> int:
    members = pt.enumerate_XN(args.N, tilde=args.tilde)
    ordered = sorted(members, reverse=True)
    _emit([json.dumps([list(la) for la in ordered])], args.output)
    return 0


def cmd_split(args) -> int:
    """The split element and its form, with one `check` line per assertion
    of its builder; jordan_type prints the partition it asserted."""
    lam = pt.check_partition(args.lam)
    lines = []
    if args.group == "sl":
        data = sp.build_sl_split(lam, args.q)
        K = data.field
        lines.append(f"unipotent u over F_{K.q} (rows of coefficient vectors):")
        lines.append(_mat_str(K, data.unipotent))
        lines.append("hermitian form A:")
        lines.append(_mat_str(K, data.form))
        lines.append("check form_hermitian: pass")
        lines.append("check u_preserves_form: pass")
        lines.append(f"check jordan_type: {list(data.la)}")
        lines.append("check fixed_by_twisted_frobenius: pass")
    else:
        data = sp.build_so_split(lam, args.q)
        K = data.field
        lines.append(f"nilpotent x over F_{K.q} (rows of coefficient vectors):")
        lines.append(_mat_str(K, data.nilpotent))
        lines.append("symmetric form f:")
        lines.append(_mat_str(K, data.form))
        lines.append("check form_symmetric_nondegenerate: pass")
        lines.append("check x_skew_adjoint: pass")
        lines.append(f"check jordan_type: {list(data.la)}")
        lines.append(f"frobenius_signs_on_generators: {list(tb.spin_tau_signs(data.la, args.q))}")
    _emit(lines, args.output)
    return 0


def _lambda_primes(args, size: int) -> list[pt.Partition]:
    """The --lambda-prime partition, else every partition of size."""
    if args.lam_prime is not None:
        return [pt.check_partition(args.lam_prime)]
    return list(pt.partitions_of(max(size, 0)))


def _flag_row(idx: int, lap, sub, sup, invariant, orbit, stable: bool) -> str:
    """One TSV row: id, lambda', the two subspaces, the stratum type, orbit id, F-stability."""
    cells = [str(idx), json.dumps(list(lap))]
    cells += [json.dumps([list(r) for r in m]) for m in (sub, sup)]
    cells += [json.dumps(list(invariant)), str(orbit), str(stable).lower()]
    return "\t".join(cells)


def cmd_flags(args) -> int:
    """The flag rows, grouped by lambda'.  On the SL side f_stable is
    varieties.is_f_stable.  On the SO side it is the constant true:
    SplitSOData lives over F_q, whose q-power map fixes every entry, and
    the enumerated planes are F_q-rational, so F fixes each of them."""
    _at_least(args, 1, "d")
    lam = pt.check_partition(args.lam)
    if args.group == "sl" and 2 * args.d > sum(lam):
        args.parser.error(f"--lambda {','.join(map(str, lam))} has size {sum(lam)}, smaller than twice --d {args.d}")
    if args.group == "so" and args.d != 1:
        args.parser.error(f"--group so enumerates planes and takes no --d, not {args.d}")
    if args.group == "so" and args.orbits:
        args.parser.error("--group so takes no --orbits")
    lines = ["flag_id\tlambda_prime\tW\tWp\ttype_mod_W\torbit\tf_stable"]
    if args.group == "sl":
        data = sp.build_sl_split(lam, args.q)
        K = data.field
        laps = _lambda_primes(args, sum(lam) - 2 * args.d)
        all_flags = vr.enumerate_flags_sl(data, args.d, laps)
        units = vr.centralizer_units(data.la, K) if all_flags and args.orbits else None
        for lap in laps:
            flags = [f for f in all_flags if f.type_quotient == lap]
            orbit_of = {}
            if units is not None:
                for idx, (orbit, _) in enumerate(vr.orbit_decomposition(flags, units, K).orbits):
                    for key in orbit:
                        orbit_of[key] = idx
            for idx, f in enumerate(flags):
                orbit = orbit_of.get((f.W, f.Wp), "-")
                lines.append(_flag_row(idx, lap, f.W, f.Wp, f.type_mod_W, orbit, vr.is_f_stable(data, f.W, f.Wp)))
    else:
        data = sp.build_so_split(lam, args.q)
        all_flags = vr.enumerate_flags_so(data)
        for lap in _lambda_primes(args, sum(lam) - 4):
            for idx, f in enumerate(f for f in all_flags if f.type_mid == lap):
                lines.append(_flag_row(idx, lap, f.E, f.Eperp, f.type_mid, "-", True))
    _emit(lines, args.output)
    return 0


def _at_least(args, least: int, *names: str) -> None:
    """Usage error unless each named integer option is at least least."""
    for name in names:
        if getattr(args, name) < least:
            args.parser.error(f"--{name.replace('_', '-')} must be at least {least}, not {getattr(args, name)}")


def _unused(args, context: str, *names: str) -> None:
    """Usage error if any named option, which context ignores, was given."""
    for name in names:
        if getattr(args, name) is not None:
            args.parser.error(f"{context} takes no --{name.replace('_', '-')}")


def cmd_restrict(args) -> int:
    lines = ["lambda\tlambda_prime\tcase\tmultiplicity"]
    _at_least(args, 1, "d")
    n, d = args.n, args.d
    if n - 2 * d < 0:
        args.parser.error(f"--n {n} is smaller than twice --d {d}")
    for la in pt.partitions_of(n):
        if any(x % d for x in la):
            continue
        for lap in pt.partitions_of(n - 2 * d):
            if any(x % d for x in lap):
                continue
            branch = rs.branch_two_step(pt.divide(la, d), pt.divide(lap, d) if lap else ())
            cells = [json.dumps(list(la)), json.dumps(list(lap)), branch.case_tag or "-", str(branch.multiplicity)]
            lines.append("\t".join(cells))
    _emit(lines, args.output)
    return 0


def cmd_tables(args) -> int:
    if args.group == "sl":
        if args.n is None or args.xi_order is None:
            args.parser.error("--group sl needs --n and --xi-order")
        _unused(args, "--group sl", "N", "omega", "extension")
        _at_least(args, 1, "n", "xi_order")
        rows = tb.y0_table_sl(args.n, args.xi_order, args.q)
        series = args.xi_order
    else:
        if args.N is None:
            args.parser.error("--group spin needs --N")
        _unused(args, "--group spin", "n", "xi_order")
        _at_least(args, 1, "N")
        if args.N % 2 and args.omega is not None:
            args.parser.error(f"--omega acts only at even --N, not {args.N}")
        rows = tb.y0_table_spin(args.N, args.q, omega_value=args.omega, extension=args.extension)
        series = "by-defect"
    if args.format == "json":
        doc = {
            "group": args.group,
            "q": args.q,
            "series": series,
            "rows": [r.to_dict() for r in rows],
        }
        _emit([json.dumps(doc, sort_keys=True)], args.output)
    else:
        lines = ["lambda\trho\textension\tdim\tclass_rep\tclass_size\tvalue"]
        for r in rows:
            for (rep, size), val in zip(r.classes, r.values):
                lines.append(
                    "\t".join(
                        [
                            json.dumps(list(r.la)),
                            r.rho_label,
                            r.extension_label,
                            str(r.dim),
                            tb._rep_str(r.group, rep),
                            str(size),
                            json.dumps(val.serialize()),
                        ]
                    )
                )
        _emit(lines, args.output)
    return 0


def cmd_verify(args) -> int:
    report: dict = {"suite": args.suite, "results": [], "ok": True}
    if args.suite == "spin-series":
        _unused(args, "--suite spin-series", "n_max")
        args.N_max = 20 if args.N_max is None else args.N_max
        _at_least(args, 3, "N_max")
        counts = sr.xn_defect_counts(args.N_max)
        for N in range(3, args.N_max + 1):
            r = sr.verify_series_cardinality(N, counts[N])
            entry = {
                "N": N,
                "ok": r.ok,
                "series": [
                    {"d": e.d, "classes": e.class_count, "bipartitions": e.bipartition_count} for e in r.entries
                ],
            }
            report["results"].append(entry)
            report["ok"] = report["ok"] and r.ok
    else:
        _unused(args, "--suite restriction", "N_max")
        args.n_max = 6 if args.n_max is None else args.n_max
        _at_least(args, 2, "n_max")
        for n in range(2, args.n_max + 1):
            for d in (1, 2):
                if n - 2 * d < 0:
                    continue
                for la in pt.partitions_of(n):
                    for r in rs.restriction_crosscheck_sl(la, pt.partitions_of(n - 2 * d), d, 3):
                        if not r.ok:
                            report["ok"] = False
                            report["results"].append(
                                {"lambda": list(la), "lambda_prime": list(r.lap), "d": d, "lhs": r.lhs_strata, "rhs": r.rhs_multiplicity}
                            )
        if report["ok"]:
            report["results"].append({"checked": "all", "n_max": args.n_max})
    _emit([json.dumps(report, sort_keys=True)], args.output)
    return 0 if report["ok"] else 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse takes the "-i" of "--omega -i" for an option
        if message == "argument --omega: expected one argument":
            message += "; attach a value that starts with '-', as in --omega=-i"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="springer",
        description="Unipotent-class series, split elements, flag enumerations and exact character tables over small finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("series", help="enumerate cuspidal series labels")
    p.add_argument("--group", choices=("spin", "sl"), required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    add_output(p)
    p.set_defaults(func=cmd_series, parser=p)

    p = sub.add_parser("xn", help="list the partitions of N with even parts paired and odd parts distinct")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tilde", action="store_true", help="drop the odd-multiplicity condition")
    add_output(p)
    p.set_defaults(func=cmd_xn, parser=p)

    p = sub.add_parser("split", help="construct a split element and print its verification checklist")
    p.add_argument("--group", choices=("sl", "so"), required=True)
    p.add_argument("--lambda", dest="lam", type=partition, required=True, help="ascending parts, comma separated")
    p.add_argument("--q", type=int, required=True)
    add_output(p)
    p.set_defaults(func=cmd_split, parser=p)

    p = sub.add_parser("flags", help="enumerate flag varieties over a small field")
    p.add_argument("--group", choices=("sl", "so"), required=True)
    p.add_argument("--lambda", dest="lam", type=partition, required=True)
    p.add_argument("--lambda-prime", dest="lam_prime", type=partition, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--orbits", action="store_true", help="also compute centralizer-unit orbit ids")
    add_output(p)
    p.set_defaults(func=cmd_flags, parser=p)

    p = sub.add_parser("restrict", help="two-step branching case and multiplicity table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    add_output(p)
    p.set_defaults(func=cmd_restrict, parser=p)

    p = sub.add_parser("tables", help="emit characteristic-function table rows")
    p.add_argument("--group", choices=("sl", "spin"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--xi-order", dest="xi_order", type=int)
    p.add_argument("--omega", choices=("1", "-1", "i", "-i"))
    p.add_argument(
        "--extension",
        choices=("plus", "minus", "trivial"),
        help="the twisted extension of a class that has two (default: both, plus then minus)",
    )
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    add_output(p)
    p.set_defaults(func=cmd_tables, parser=p)

    p = sub.add_parser("verify", help="run a verification suite; exit 1 on failure")
    p.add_argument("--suite", choices=("spin-series", "restriction"), required=True)
    p.add_argument("--N-max", dest="N_max", type=int, help="spin-series: largest N (default 20)")
    p.add_argument("--n-max", dest="n_max", type=int, help="restriction: largest n (default 6)")
    add_output(p)
    p.set_defaults(func=cmd_verify, parser=p)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, vr.VarietyBudgetError) as exc:
        code, failure = 1, exc
    except AssertionError as exc:
        code, failure = 3, exc
    report = {"error": type(failure).__name__, "message": str(failure)}
    sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
