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

parse reads a file block by block, split at its block lines.  A usual
block, a rep line then dir lines in RREF, is two cache lookups: its rep
line, and its run of dir lines, which parallel blocks repeat and which is
read once into one shared canonical subspace.  The rep is reduced only if
it is nonzero on the direction's pivots (one int AND).  Any other spelling
is read a line at a time, and errors come in line order, as a
line-at-a-time reader meets them.
"""

from __future__ import annotations

import functools

from .design import FlatFamily, ClassicalDesign
from .flatspace import (AffineFlat, GeometryError, GeometrySpec,
                        LinearSubspace)
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
    affine = g.kind == "affine"
    body = [f"block\nrep {spell(b.rep)}\n{dirs(b.dir.rows)}" if affine else "block\n" + dirs(b.rows)
            for b in sorted(fam.blocks, key=lambda x: x.sort_key())]
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

    @functools.cache  # for this call: each distinct run of dir lines once
    def run(lines):
        """(span of the rows, its pivot bits) of some dir lines joined by
        newlines; None if one is not a good dir line."""
        recs = [*map(line, lines.split("\n"))] if lines else []
        if all(record == "dir" and not error for record, _, _, error in recs):
            try:
                D = LinearSubspace.from_rows(K, d, [rec[1] for rec in recs])
            except Exception as exc:  # raised for the block after its rep check
                raise ParseError(f"bad block: {exc}") from exc
            return D, sum(1 << c for c in D.pivots)

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

    blocks = [D if not affine else AffineFlat.coset(rep[1], D) if rep[2] & pivots
              else AffineFlat(K, d, rep[1], D)  # else canonical: zero on the pivots
              for rep, (D, pivots) in pairs()]
    del text, chunks, lines
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
