"""Command-line front end.

Exit codes: 0 ok, 2 bad parameters, 3 enumeration guard exceeded,
4 file or parse error, 5 verification failure.  All reports are line-oriented
key=value text with exact numbers (rationals as "p/q").

USAGE is the -h text, listing every command and option, and the grammar
parse_args reads; any unique prefix of an option name works.  A bad argv
prints one "error: ..." line and exits 2.

Each subcommand imports only the library layers it runs.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
    if not os.path.basename(path):
        raise CliError(EXIT_PARAMS, f"--out {path!r} names no file")
    tmp, fh = path + ".tmp", None
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if fh is not None:  # tmp was made here: leave no trace of it
            os.unlink(tmp)
        raise CliError(EXIT_PARSE, f"cannot write {path}: {exc}") from exc


def _load_family(path: str):
    from . import blockfile
    try:
        with open(path, encoding="utf-8") as fh:
            return blockfile.parse(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
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
        if args.kind == "affine" and args.k == 0:  # the construction is "complete"
            raise CliError(EXIT_PARAMS, "k=0 is the empty flat, which a "
                                        "block file cannot hold")
        field = field_of_order(args.q)
        return design.complete_design(flatspace.GeometrySpec(args.kind, field, args.n), args.k)
    except flatspace.GuardExceeded as exc:
        raise CliError(EXIT_GUARD, str(exc)) from exc
    except (construct.ConstructError, FieldError, ValueError) as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc


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
        elif args.mode == "ev11":
            cd = design.ev11_compose(fam)
        else:  # affine-2 or affine-3
            cd = design.expand_affine_design(fam, int(args.mode[-1]))
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
    from . import flatspace, netsim
    fam = _load_family(args.code)
    try:
        cfg = netsim.NetworkConfig(
            layers=args.layers, width=args.width, indegree=args.indegree,
            drop_prob=Fraction(args.drop_prob), sink_indegree=args.sink_indegree)
        stats = netsim.run_trials(fam, cfg, args.trials, args.seed,
                                  forced_deletions=args.forced_deletions)
    except (flatspace.GuardExceeded, MemoryError) as exc:
        raise CliError(EXIT_GUARD, str(exc) or "out of memory: one trial does not fit") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc
    sys.stdout.write(stats.render())
    return EXIT_OK


USAGE = """\
usage: affgeo COMMAND ... [-h]; any unique prefix of an option name works
affgeo construct spread --q INT --n INT --k INT --out PATH
affgeo construct affine-steiner --q INT --k INT --l INT --out PATH
affgeo construct poly-code --q INT --m INT --l INT --t INT --out PATH
affgeo construct complete --q INT --kind affine|projective --n INT --k INT --out PATH
affgeo verify INFILE --t INT
affgeo analyze INFILE
affgeo expand INFILE --mode subspace|affine-2|affine-3|ev11 --out PATH
affgeo simulate CODE --trials INT [--seed INT=0] [--layers INT=1] [--width INT=4]
        [--indegree INT=2] [--drop-prob P=0] [--sink-indegree INT=4] [--forced-deletions INT]
"""
LEVELS = ("command", "construction")  # the attributes naming the command words


def _value(opt: str, spec: str, text):
    """text (None if opt was given none) as a value of type spec: INT, a|b|..., or a string."""
    try:
        if text is not None and ("|" not in spec or text in spec.split("|")):
            return int(text) if spec == "INT" else text
    except ValueError:
        pass
    raise CliError(EXIT_PARAMS, f"{opt} needs {spec}" + ("" if text is None else f", not {text!r}"))


def _grammar() -> dict:
    """USAGE as {command words: (positional, {option: (attribute, type, default, required)})}."""
    rules = {}
    for line in USAGE.replace("\n        ", " ").splitlines()[1:]:
        words = line.split()[1:]
        n = next(i for i, w in enumerate(words) if not w[0].islower())
        rules.update({tuple(words[:k]): (LEVELS[k], {}) for k in range(n)})
        pos = words.pop(n).lower() if words[n].isupper() else None
        rules[tuple(words[:n])] = pos, (opts := {})
        for name, spec in zip(words[n::2], words[n + 1::2]):  # --name TYPE or [--name TYPE=d]
            spec, _, d = spec.strip("]").partition("=")
            opts[name.strip("[")] = (name.strip("[-").replace("-", "_"), spec,
                                     _value(name, spec, d) if d else None, name[0] != "[")
    return rules


def _option(tok: str, names) -> tuple:
    """(option, value after "=" or None) of tok: option "" is a plain value, None unknown."""
    name, eq, value = tok.partition("=")
    if tok[:1] != "-" or tok in ("-", "--"):
        return "", None
    hits = [name] if name in names else [o for o in names if tok[1] == "-" and o.startswith(name)]
    if len(hits) > 1:
        raise CliError(EXIT_PARAMS, f"ambiguous option: {name} could match {', '.join(hits)}")
    if hits and not (eq and hits[0] in ("-h", "--help")):  # help given a value is unknown
        return hits[0], value if eq else None
    whole, dot, frac = tok[1:].partition(".")  # -7 and -.5 are values, as in argparse
    return ("" if (whole + "0").isdecimal() and (frac.isdecimal() or not dot) else None), None


def parse_args(argv) -> SimpleNamespace | None:
    """Reads argv as argparse did: one attribute per argument, or None once -h
    has printed USAGE; raises CliError(EXIT_PARAMS) where argparse exits 2."""
    rules, args, path, extra, toks = _grammar(), SimpleNamespace(), (), None, list(argv)
    while path in rules:  # one pass per level: the command word, the construction, the options
        pos, opts = rules[path]
        names, n, i = [*opts, "-h", "--help"], len(toks), 0
        # Every token is classified before any acts; from the first "--" on, all are
        # values, except where a command word goes: there "--" is read as one.
        cut = toks.index("--") if "--" in toks and pos not in LEVELS else n
        kinds = [*(_option(t, names) for t in toks[:cut]), ("--", None), *[("", None)] * n][:n]
        vars(args).update((spec[0], spec[2]) for spec in opts.values())
        while i < n:
            (opt, value), tok, i = kinds[i], toks[i], i + 1
            if opt in ("-h", "--help"):
                print(USAGE, end="")
                return None
            if opt in opts:
                if value is None and kinds[i:i + 1] == [("", None)]:
                    value, i = toks[i], i + 1
                setattr(args, opts[opt][0], _value(opt, opts[opt][1], value))
            elif pos and opt == "":
                setattr(args, pos, tok)
                if pos in LEVELS:  # parse the rest at the next level
                    path, toks = (*path, tok), toks[i:]
                    break
                pos, i = None, i + (kinds[i:i + 1] == [("--", None)])  # a "--" on either side
            elif not (pos and opt == "--" and i < n):  # of the value is dropped
                extra = extra or tok
        else:
            break
    else:
        raise CliError(EXIT_PARAMS, f"invalid choice: {path[-1]!r}")
    missing = [pos] * bool(pos) + [o for o, (attr, _, _, required) in opts.items()
                                   if required and getattr(args, attr) is None]
    if missing:
        raise CliError(EXIT_PARAMS, "the following arguments are required: " + ", ".join(missing))
    if extra is not None:
        raise CliError(EXIT_PARAMS, f"unrecognized arguments: {extra}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return EXIT_OK if args is None else globals()["cmd_" + args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
