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
render then writes in canonical form.  Within one call, each distinct
coordinate line is read, each distinct vector spelled and each distinct
dir row set canonicalised once, so parallel blocks share one subspace.
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
    g = fam.geometry
    K = g.field
    lines = [MAGIC,
             f"field p={K.p} e={K.e} modulus={_render_modulus(K)}",
             f"space kind={g.kind} rank={g.rank}"]
    spell = functools.cache(lambda v: " ".join(map(K.digits, v)))  # for this call
    for b in sorted(fam.blocks, key=lambda x: x.sort_key()):
        lines.append("block")
        if g.kind == "affine":
            lines.append("rep " + spell(b.rep))
            rows = b.dir.rows
        else:
            rows = b.rows
        for row in rows:
            lines.append("dir " + spell(row))
    return "\n".join(lines) + "\n"


def parse(text: str) -> FlatFamily:
    lines = [ln for ln in text.splitlines() if ln.strip()]
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

    blocks = []
    rep = None
    rows = []
    in_block = False
    vec = functools.cache(lambda ln: _parse_vec(K, ln.split()[1:]))  # for this call
    span = functools.cache(lambda rows: LinearSubspace.from_rows(K, d, rows))

    def flush():
        if not in_block:
            return
        try:
            if kind == "affine":
                if rep is None:
                    raise ParseError("affine block without rep line")
                blocks.append(AffineFlat.coset(rep, span(tuple(rows))))
            else:
                blocks.append(span(tuple(rows)))
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"bad block: {exc}") from exc

    for ln in lines[3:]:
        record = ln.split(None, 1)[0]
        if record == "block":
            flush()
            in_block, rep, rows = True, None, []
        elif record == "rep":
            if not in_block or kind != "affine":
                raise ParseError("unexpected rep line")
            rep = vec(ln)
            if len(rep) != d:
                raise ParseError(f"rep has {len(rep)} coordinates, expected {d}")
        elif record == "dir":
            if not in_block:
                raise ParseError("dir line outside a block")
            row = vec(ln)
            if len(row) != d:
                raise ParseError(f"dir has {len(row)} coordinates, expected {d}")
            rows.append(row)
        else:
            raise ParseError(f"unknown record {record!r}")
    flush()
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
