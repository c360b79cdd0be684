"""Bit-exact text format for flat families.

Layout (LF line endings, UTF-8):

    affgeo v1
    field p=<p> e=<e> modulus=<digits>
    space kind=<affine|projective> rank=<n>
    block
    rep <coords>          (affine blocks only)
    dir <coords>          (one per basis row)
    ...

Coordinates are space-separated element digit strings: e base-p digits,
constant coefficient first (comma-joined digits when p > 10).  Blocks
are sorted by canonical form, so parse(render(x)) == x and files diff
cleanly.  render(parse(text)) == text holds for canonical text only:
parse also accepts blocks out of order and dir rows not in RREF, which
render then writes in canonical form.  render builds one string per
block, in an order read from the columns, not from block objects: each
distinct vector and each entry of dirs is spelt once, and a family already
in canonical order, as construct and a canonical file give, is not sorted.

parse reads a file block by block, split at its block lines, into the
columns of a FlatFamily, with no block object.  A usual block, a rep
line then dir lines in RREF, is two cache lookups: its rep line, and its
run of dir lines, which parallel blocks repeat and which is read once
into its index in dirs.  The rep is reduced only if it is nonzero on the
direction's pivots (one int AND).  Any other spelling is read a line at
a time, and errors come in line order, as a line-at-a-time reader meets
them.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .design import FlatFamily, ClassicalDesign
from .flatspace import (GeometryError, GeometrySpec, LinearSubspace,
                        reduce_vector)
from .galois import FieldError, field_new

MAGIC = "affgeo v1"


class ParseError(ValueError):
    pass


def _parse_vec(K, tokens) -> tuple:
    try:
        return tuple(map(K.parse_digits, tokens))
    except FieldError as exc:
        raise ParseError(str(exc)) from exc


def _render_modulus(K) -> str:
    """The e+1 modulus coefficients, in the same digit convention as elements."""
    return ("" if K.p <= 10 else ",").join(str(c) for c in K.modulus)


def render(fam: FlatFamily) -> str:
    g, K = fam.geometry, fam.geometry.field
    spell = functools.cache(lambda v: " ".join(map(K.digits, v)))  # for this call
    dirs = functools.cache(lambda rows: "".join(f"dir {spell(row)}\n" for row in rows))
    lines = [dirs(D.rows) for D in fam.dirs or fam.blocks]  # per entry of dirs, or block
    reps, dir_of, affine = fam.reps, fam.dir_of, g.kind == "affine"
    if reps:  # sort_key order: affine blocks, all of one rank, by (pivots, rep, rows)
        pivots, rows = [D.pivots for D in fam.dirs], [D.rows for D in fam.dirs]
        keys = lambda: zip(map(pivots.__getitem__, dir_of), reps, map(rows.__getitem__, dir_of))
    else:
        keys = lambda: map(operator.methodcaller("sort_key"), fam.blocks)
    # a family made or read in order, as construct makes them, is checked in one
    # pass that holds two keys at a time, not sorted
    now, after = itertools.tee(keys())
    order = range(len(fam))
    if any(map(operator.gt, now, itertools.islice(after, 1, None))):
        order = sorted(order, key=list(keys()).__getitem__)
    body = [f"block\nrep {spell(reps[i])}\n{lines[dir_of[i]]}" if affine
            else "block\n" + lines[i] for i in order]
    return (f"{MAGIC}\nfield p={K.p} e={K.e} modulus={_render_modulus(K)}\n"
            f"space kind={g.kind} rank={g.rank}\n" + "".join(body))


def parse(text: str) -> FlatFamily:
    if not text.isascii() or any(map(text.__contains__, "\r\v\f\x1c\x1d\x1e")):
        text = "\n".join(text.splitlines())  # every other line break as \n
    chunks = ("\n" + text.rstrip("\n")).split("\nblock\n")  # at the usual block lines
    lines = [*filter(str.strip, chunks[0].split("\n"))]
    head = (lines + ["block"] * (len(chunks) > 1))[:3]  # a block line in the header is wrong
    if not head or head[0] != MAGIC:
        raise ParseError(f"missing header {MAGIC!r}")
    try:
        fields = dict(tok.split("=", 1) for tok in head[1].split()[1:])
        p, e = int(fields["p"]), int(fields["e"])
        mod = fields["modulus"]
        space = dict(tok.split("=", 1) for tok in head[2].split()[1:])
        kind, rank = space["kind"], int(space["rank"])
    except (KeyError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed header: {exc}") from exc
    try:
        K = field_new(p, e)
        if mod != _render_modulus(K):
            raise ParseError(f"modulus {mod!r} does not match the built-in "
                             f"modulus for ({p},{e})")
        g = GeometrySpec(kind, K, rank)
    except (FieldError, GeometryError) as exc:
        raise ParseError(str(exc)) from exc
    d = g.ambient_dim
    affine = kind == "affine"

    @functools.cache  # for this call: each distinct line is read once
    def line(ln):
        """(record, vector, support: bit c set where coordinate c is not 0, error)."""
        record, *tokens = ln.split() or [None]
        if record not in ("rep", "dir"):  # no error for a block or a blank line
            return record, None, 0, record and record != "block" and f"unknown record {record!r}"
        try:
            if record == "rep" and not affine:
                raise ParseError("unexpected rep line")
            v = _parse_vec(K, tokens)
            if len(v) != d:
                raise ParseError(f"{record} has {len(v)} coordinates, expected {d}")
        except ParseError as exc:
            return record, None, 0, str(exc)
        return record, v, sum(1 << c for c, x in enumerate(v) if x), None

    merged = {}  # each span of dir rows -> its index in dirs, in order of first use

    @functools.cache  # for this call: each distinct run of dir lines once
    def run(lines):
        """(span of the rows, its pivot bits, its index in dirs) of some dir
        lines joined by newlines; None if one is not a good dir line."""
        recs = [*map(line, lines.split("\n"))] if lines else []
        if all(record == "dir" and not error for record, _, _, error in recs):
            try:
                D = LinearSubspace.from_rows(K, d, [rec[1] for rec in recs])
            except Exception as exc:  # raised for the block after its rep check
                raise ParseError(f"bad block: {exc}") from exc
            return D, sum(1 << c for c in D.pivots), merged.setdefault(D, len(merged))

    def read(lines, inside):
        """(rep line's record, run()) of each block in some lines joined by
        newlines, read one at a time; inside: they follow a block line."""
        rep, dirs = None, []
        for ln in [*lines.split("\n"), "block"]:  # a last block line ends the last block
            rec = record, _, _, error = line(ln)
            if record == "block":
                if inside:
                    if affine and rep is None:
                        raise ParseError("affine block without rep line")
                    yield rep, run("\n".join(dirs))
                inside, rep, dirs = True, None, []
            elif not inside and record in ("rep", "dir"):
                raise ParseError("unexpected rep line" if record == "rep"
                                 else "dir line outside a block")
            elif error:
                raise ParseError(error)
            elif record == "rep":
                rep = rec
            elif record:
                dirs.append(ln)

    def pairs():
        """read() of the whole body, a usual block by its two cache keys."""
        yield from read("\n".join(lines[3:]), False)  # the lines before the first split
        for chunk in chunks[1:]:
            first, _, rest = chunk.partition("\n") if affine else ("", "", chunk)
            rep = line(first)
            if affine and (rep[0] != "rep" or rep[3]) or (D := run(rest)) is None:
                yield from read(chunk, True)  # any other spelling, line at a time
            else:
                yield rep, D

    # the columns: each block's index in dirs and rep, reduced if nonzero on the pivots
    cols = [(j, rep and (reduce_vector(K, D.rows, D.pivots, rep[1]) if rep[2] & pivots
                         else rep[1])) for rep, (D, pivots, j) in pairs()]
    del text, chunks, lines
    (dir_of, reps), dirs = zip(*cols) if cols else ((), ()), tuple(merged)
    try:
        return (FlatFamily.from_columns(g, dirs, dir_of, reps) if affine
                else FlatFamily(g, tuple(map(dirs.__getitem__, dir_of))))
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def render_classical(design: ClassicalDesign) -> str:
    lines = [f"{design.point_count} {len(design.blocks)} {design.block_size}"]
    for b in sorted(tuple(sorted(blk)) for blk in design.blocks):
        lines.append(" ".join(str(i) for i in b))
    return "\n".join(lines) + "\n"


def parse_classical(text: str) -> ClassicalDesign:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty classical design file")
    try:
        v, b, k = (int(x) for x in lines[0].split())
        blocks = tuple(frozenset(int(x) for x in ln.split()) for ln in lines[1:])
    except ValueError as exc:
        raise ParseError(f"malformed classical design: {exc}") from exc
    if len(blocks) != b or any(len(blk) != k for blk in blocks):
        raise ParseError("classical design header disagrees with body")
    return ClassicalDesign(v, blocks)
