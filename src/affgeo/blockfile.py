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
block; it spells each distinct vector once and writes the dir lines of
each distinct row set once, as parallel blocks share them.

parse works in three grains.  Once per line: a dict lookup of its text;
each distinct line is read once.  Once per direction: the dir lines that
parallel blocks repeat are one cache key, read once, and give one shared
canonical subspace.  Once per block: a slice of its lines, a few checks
and the AffineFlat, whose rep is reduced only if it is nonzero on the
direction's pivots (one int AND).  Errors come in line order, as a
line-at-a-time reader meets them.
"""

from __future__ import annotations

import functools

from .design import FlatFamily, ClassicalDesign
from .flatspace import (AffineFlat, GeometryError, GeometrySpec,
                        LinearSubspace)
from .galois import FieldError, field_new

MAGIC = "affgeo v1"
BLOCK = ("block", None, 0, None)  # what parse reads from every block line


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
    affine = g.kind == "affine"
    body = [f"block\nrep {spell(b.rep)}\n{dirs(b.dir.rows)}" if affine else "block\n" + dirs(b.rows)
            for b in sorted(fam.blocks, key=lambda x: x.sort_key())]
    return (f"{MAGIC}\nfield p={K.p} e={K.e} modulus={_render_modulus(K)}\n"
            f"space kind={g.kind} rank={g.rank}\n" + "".join(body))


def parse(text: str) -> FlatFamily:
    lines = list(filter(str.strip, text.splitlines()))
    if not lines or lines[0] != MAGIC:
        raise ParseError(f"missing header {MAGIC!r}")
    try:
        fields = dict(tok.split("=", 1) for tok in lines[1].split()[1:])
        p, e = int(fields["p"]), int(fields["e"])
        mod = fields["modulus"]
        space = dict(tok.split("=", 1) for tok in lines[2].split()[1:])
        kind, rank = space["kind"], int(space["rank"])
    except (KeyError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed header: {exc}") from exc
    try:
        K = field_new(p, e)
    except FieldError as exc:
        raise ParseError(str(exc)) from exc
    if mod != _render_modulus(K):
        raise ParseError(f"modulus {mod!r} does not match the built-in "
                         f"modulus for ({p},{e})")
    try:
        g = GeometrySpec(kind, K, rank)
    except GeometryError as exc:
        raise ParseError(str(exc)) from exc
    d = g.ambient_dim
    affine = kind == "affine"

    @functools.cache  # for this call: each distinct line is read once
    def line(ln):
        """(record, vector, support, error).  record is "block", "rep" or
        "dir"; it is None for a line that is wrong in any block, with the
        error.  A vector's support has bit c set where coordinate c is not 0."""
        record = ln.split(None, 1)[0]
        if record == "block":
            return BLOCK
        if record not in ("rep", "dir"):
            return None, None, 0, f"unknown record {record!r}"
        if record == "rep" and not affine:
            return None, None, 0, "unexpected rep line"
        try:
            v = _parse_vec(K, ln.split()[1:])
        except ParseError as exc:
            return None, None, 0, str(exc)
        if len(v) != d:
            return None, None, 0, f"{record} has {len(v)} coordinates, expected {d}"
        return record, v, sum(1 << c for c, x in enumerate(v) if x), None

    span = functools.cache(lambda rows: LinearSubspace.from_rows(K, d, rows))

    @functools.cache  # for this call: each distinct run of lines once
    def part(run):
        """(error, last rep line's record, span of the dir rows, its pivot
        bits) of some of a block's lines, in order."""
        rep, rows = None, []
        for ln in run:
            record, v, _, error = rec = line(ln)
            if error:
                return error, None, None, 0
            if record == "rep":
                rep = rec
            else:
                rows.append(v)
        try:
            D = span(tuple(rows))
        except Exception as exc:  # raised for the block after its rep check
            return None, rep, exc, 0
        return None, rep, D, sum(1 << c for c in D.pivots)

    body = lines[3:]
    del lines  # body holds the text's lines; they are dropped before the family check
    recs = [*map(line, body), BLOCK]  # a last block line ends the last block
    starts = [i for i, rec in enumerate(recs) if rec is BLOCK]
    if starts[0]:  # a record before the first block
        record = body[0].split(None, 1)[0]
        raise ParseError({"rep": "unexpected rep line",
                          "dir": "dir line outside a block"}.get(
                              record, f"unknown record {record!r}"))
    blocks = []
    for i, j in zip(starts, starts[1:]):
        # the usual block is a rep line, then the dir lines that its parallel
        # blocks repeat: that run of lines is one cache key, read once
        head = recs[i + 1]
        usual = head[0] == "rep"
        error, last, D, pivots = part(tuple(body[i + 1 + usual:j]))
        if error:
            raise ParseError(error)
        rep = last or (head if usual else None)
        if affine and rep is None:
            raise ParseError("affine block without rep line")
        if D.__class__ is not LinearSubspace:
            raise ParseError(f"bad block: {D}") from D
        if not affine:
            blocks.append(D)
        elif rep[2] & pivots:
            blocks.append(AffineFlat.coset(rep[1], D))
        else:  # already canonical: zero on the direction's pivots
            blocks.append(AffineFlat(K, d, rep[1], D))
    del body, recs, starts
    try:
        return FlatFamily(g, tuple(blocks))
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
