"""Command-line front end.

Exit codes: 0 ok, 2 bad parameters, 3 enumeration guard exceeded,
4 parse error, 5 verification failure.  All reports are line-oriented
key=value text with exact numbers (rationals as "p/q").

AFFGEO_THREADS is accepted for compatibility with parallel runners; the
library is pure and single-process, so it caps a worker count that is
currently always one.

Each subcommand imports only the library layers it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_GUARD = 3
EXIT_PARSE = 4
EXIT_VERIFY = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _write_atomic(path: str, text: str):
    tmp = Path(path).with_suffix(Path(path).suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _load_family(path: str):
    from . import blockfile
    try:
        return blockfile.parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except blockfile.ParseError as exc:
        raise CliError(EXIT_PARSE, f"parse error in {path}: {exc}") from exc


def _load_family_with_header(path: str):
    """Load a family and print the kind/n/k/blocks lines of a report."""
    from . import design
    fam = _load_family(path)
    try:
        k = fam.block_rank
    except design.DesignError as exc:
        raise CliError(EXIT_PARAMS, f"{path}: {exc}") from exc
    print(f"kind={fam.geometry.kind}")
    print(f"n={fam.geometry.rank}")
    print(f"k={k}")
    print(f"blocks={len(fam)}")
    return fam


def _construct_family(args):
    from . import construct, design, flatspace
    from .galois import FieldError, field_of_order
    try:
        if args.construction == "spread":
            return construct.desarguesian_spread(args.n, args.k, args.q)
        if args.construction == "affine-steiner":
            return construct.affine_steiner(args.k, args.l, args.q)
        if args.construction == "poly-code":
            return construct.affine_poly_code(args.q, args.m, args.l, args.t)
        if args.construction == "complete":
            if args.kind == "affine" and args.k == 0:
                raise CliError(EXIT_PARAMS, "k=0 is the empty flat, which a "
                                            "block file cannot hold")
            field = field_of_order(args.q)
            g = flatspace.GeometrySpec(args.kind, field, args.n)
            return design.complete_design(g, args.k)
    except flatspace.GuardExceeded as exc:
        raise CliError(EXIT_GUARD, str(exc)) from exc
    except (construct.ConstructError, FieldError, ValueError) as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc
    raise CliError(EXIT_PARAMS, f"unknown construction {args.construction}")


def cmd_construct(args) -> int:
    from . import blockfile
    fam = _construct_family(args)
    _write_atomic(args.out, blockfile.render(fam))
    print(f"blocks={len(fam)}")
    print(f"out={args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import design, flatspace
    fam = _load_family_with_header(args.infile)
    try:
        result = design.verify_design(fam, args.t)
    except flatspace.GuardExceeded as exc:
        raise CliError(EXIT_GUARD, str(exc)) from exc
    except design.DesignError as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc
    print(f"t={args.t}")
    if result.ok:
        print(f"lambda={result.lam}")
        return EXIT_OK
    lo, hi = result.counts
    print("violation=1")
    print(f"counts={lo},{hi}")
    return EXIT_VERIFY


def cmd_analyze(args) -> int:
    from . import codes, design
    fam = _load_family_with_header(args.infile)
    if fam.geometry.kind == "affine":
        classes = design.parallel_classes(fam)
        print(f"parallel_classes={classes}")
        print(f"skew={'true' if classes == len(fam) else 'false'}")
    m = codes.max_pairwise_meet_rank(fam)
    print(f"max_meet_rank={m}")
    print(f"radius={fam.block_rank - m - 1}")
    return EXIT_OK


def cmd_expand(args) -> int:
    from . import blockfile, design
    fam = _load_family(args.infile)
    try:
        if args.mode == "subspace":
            cd = design.expand_subspace_design(fam)
        elif args.mode == "affine-2":
            cd = design.expand_affine_design(fam, 2)
        elif args.mode == "affine-3":
            cd = design.expand_affine_design(fam, 3)
        elif args.mode == "ev11":
            cd = design.ev11_compose(fam)
        else:
            raise CliError(EXIT_PARAMS, f"unknown mode {args.mode}")
    except design.DesignError as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc
    _write_atomic(args.out, blockfile.render_classical(cd))
    print(f"v={cd.point_count}")
    print(f"b={len(cd.blocks)}")
    print(f"k={cd.block_size}")
    print(f"out={args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from fractions import Fraction
    from . import netsim
    fam = _load_family(args.code)
    try:
        cfg = netsim.NetworkConfig(
            layers=args.layers, width=args.width, indegree=args.indegree,
            drop_prob=Fraction(args.drop_prob), sink_indegree=args.sink_indegree)
        stats = netsim.run_trials(fam, cfg, args.trials, args.seed,
                                  forced_deletions=args.forced_deletions)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc
    sys.stdout.write(stats.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affgeo",
        description="Designs and small-intersection codes in affine and "
                    "projective geometry over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a flat family and write a block file")
    cs = c.add_subparsers(dest="construction", required=True)

    spread = cs.add_parser("spread", help="Desarguesian spread S(1,k,n)")
    spread.add_argument("--q", type=int, required=True)
    spread.add_argument("--n", type=int, required=True)
    spread.add_argument("--k", type=int, required=True)
    spread.add_argument("--out", required=True)

    st = cs.add_parser("affine-steiner", help="affine Steiner system S(2,k+1,kl+1)")
    st.add_argument("--q", type=int, required=True)
    st.add_argument("--k", type=int, required=True)
    st.add_argument("--l", type=int, required=True)
    st.add_argument("--out", required=True)

    pc = cs.add_parser("poly-code", help="affine-polynomial graph code")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--l", type=int, required=True)
    pc.add_argument("--t", type=int, required=True)
    pc.add_argument("--out", required=True)

    comp = cs.add_parser("complete", help="all rank-k flats of AG/PG")
    comp.add_argument("--q", type=int, required=True)
    comp.add_argument("--kind", choices=["affine", "projective"], required=True)
    comp.add_argument("--n", type=int, required=True, help="geometry rank")
    comp.add_argument("--k", type=int, required=True)
    comp.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="check the design property at level t")
    v.add_argument("infile")
    v.add_argument("--t", type=int, required=True)

    a = sub.add_parser("analyze", help="parallel classes, meets, radius")
    a.add_argument("infile")

    e = sub.add_parser("expand", help="derive the classical design")
    e.add_argument("infile")
    e.add_argument("--mode", choices=["subspace", "affine-2", "affine-3", "ev11"],
                   required=True)
    e.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="random affine network coding trials")
    s.add_argument("code")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--layers", type=int, default=1)
    s.add_argument("--width", type=int, default=4)
    s.add_argument("--indegree", type=int, default=2)
    s.add_argument("--drop-prob", default="0")
    s.add_argument("--sink-indegree", type=int, default=4)
    s.add_argument("--forced-deletions", type=int, default=None)

    return parser


_HANDLERS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "expand": cmd_expand,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    threads = os.environ.get("AFFGEO_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print(f"error: AFFGEO_THREADS={threads!r} is not a positive integer",
                  file=sys.stderr)
            return EXIT_PARAMS
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
