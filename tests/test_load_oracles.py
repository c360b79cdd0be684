"""Oracles for loading a family: parse and the FlatFamily check.

reference_parse is the line-at-a-time parser that blockfile.parse
replaced, kept verbatim: on canonical and mutated block files, parse
must give an equal family in the same block order, or the same
ParseError message.  reference_check is the per-block FlatFamily check
that the grouped one replaced: on families with duplicate, mixed-rank,
foreign and empty blocks, the grouped check must raise the same
exception type and message, in the same precedence.  The direction
table the check builds (FlatFamily.dirs, dir_of) must be the blocks'
parallel classes by value, and every reader of it must give the same
results on twin directions (equal, on distinct objects) as on shared ones.
A family held as columns must equal, column for column, the one its own
blocks give.
"""

import functools
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affgeo import (AffineFlat, FlatFamily, LinearSubspace, NetworkConfig,
                    affine_geometry, affine_poly_code, affine_steiner, blockfile, complete_design,
                    desarguesian_spread, expand_affine_design, field_new,
                    max_pairwise_meet_rank, run_trials, through_zero,
                    translate_closure, verify_design)
from affgeo.blockfile import MAGIC, ParseError, _parse_vec, _render_modulus, parse, render
from affgeo.design import DesignError
from affgeo.flatspace import (GeometryError, GeometrySpec, enumerate_flats,
                              flat_rank, vec_add)
from affgeo.galois import FieldError, FieldSpec
from canonical_order import canonical


def reference_parse(text: str) -> FlatFamily:
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


# --- parse ----------------------------------------------------------------------

FAMILIES = {
    "S(2,3,7)": affine_steiner(2, 3, 2),
    "q3-steiner": affine_steiner(2, 2, 3),
    "spread": desarguesian_spread(4, 2, 3),
}
FILES = {name: render(fam) for name, fam in FAMILIES.items()}


def _outcome(load, text):
    try:
        fam = load(text)
    except ParseError as exc:
        return "error", str(exc)
    return "family", fam.geometry, fam.blocks


def _spell(K, v):
    return " ".join(map(K.digits, v))


def _vec(K, ln):
    """The vector of a rep or dir line, or None when an earlier edit broke it."""
    try:
        return tuple(map(K.parse_digits, ln.split()[1:]))
    except FieldError:
        return None


def _block_spans(lines):
    """(start, end) of each block's lines, the block line included."""
    starts = [i for i, ln in enumerate(lines) if ln.split(None, 1)[:1] == ["block"]]
    return list(zip(starts, starts[1:] + [len(lines)]))


def _edit(lines, op, i, j, K, d):
    """Apply one mutation to the lines of a block file over K^d, in place."""
    spans = _block_spans(lines)
    start, end = spans[i % len(spans)] if spans else (len(lines), len(lines))
    inner = list(range(start + 1, end))
    reps = [k for k in inner if lines[k].split(None, 1)[:1] == ["rep"]]
    dirs = [k for k in inner if lines[k].split(None, 1)[:1] == ["dir"]]
    if op == "shuffle":
        blocks = [lines[a:b] for a, b in spans]
        random.Random(j).shuffle(blocks)
        lines[spans[0][0]:] = [ln for blk in blocks for ln in blk] if spans else []
    elif op == "reverse":
        lines[spans[0][0]:] = [ln for a, b in reversed(spans) for ln in lines[a:b]] if spans else []
    elif op == "blank":
        lines.insert(i % (len(lines) + 1), ["", "   ", "\t \t"][j % 3])
    elif op == "indent":
        k = i % len(lines)
        lines[k] = [" ", "\t", "  \t "][j % 3] + lines[k]
    elif op == "block-extra":
        lines[start:start + 1] = ["block extra"] if spans else []
    elif op == "rep-late" and reps and dirs:  # after the first or the last dir
        ln = lines.pop(reps[0])
        lines.insert(dirs[0] if j % 2 else dirs[-1], ln)
    elif op == "rep-twice" and reps:  # another block's rep, first or last
        other = lines[spans[j % len(spans)][0] + 1:][:1]
        if other and other[0].startswith("rep"):
            lines.insert(reps[0] if j % 2 else end, other[0])
    elif op == "basis" and len(dirs) >= 2:  # another basis: r1 + r0, r0, ...
        r0, r1 = _vec(K, lines[dirs[0]]), _vec(K, lines[dirs[1]])
        if r0 and r1 and len(r0) == len(r1):
            lines[dirs[0]] = "dir " + _spell(K, vec_add(K, r1, r0))
            lines[dirs[1]] = "dir " + _spell(K, r0)
    elif op == "rep-shift" and reps and dirs:  # a non-canonical rep of the same coset
        rep, row = _vec(K, lines[reps[0]]), _vec(K, lines[dirs[j % len(dirs)]])
        if rep and row and len(rep) == len(row):
            lines[reps[0]] = "rep " + _spell(K, vec_add(K, rep, row))
    elif op in ("drop", "dup", "garble") and lines:
        k = i % len(lines)
        if op == "drop":
            del lines[k]
        elif op == "dup":
            lines.insert(k, lines[k])
        else:
            c = j % max(len(lines[k]), 1)
            lines[k] = lines[k][:c] + "0129x =,-"[j % 9] + lines[k][c + 1:]
    elif op == "unknown":
        lines.insert(i % (len(lines) + 1), ["wat 0 1", "Block", "rep0 1", "dirt"][j % 4])
    elif op == "before-first-block":
        lines.insert(3, ["rep ", "dir "][j % 2] + _spell(K, (0,) * d))
    elif op == "rep-line":  # a rep line in any block; in a projective file an error
        lines.insert(start + 1 + j % max(end - start, 1), "rep " + _spell(K, (0,) * d))
    elif op == "coords" and (reps or dirs):
        k = (reps + dirs)[j % len(reps + dirs)]
        lines[k] = lines[k] + " 0" if j % 2 else lines[k].rsplit(None, 1)[0]


EDITS = ["shuffle", "reverse", "blank", "indent", "block-extra", "rep-late",
         "rep-twice", "basis", "rep-shift", "drop", "dup", "garble", "unknown",
         "before-first-block", "rep-line", "coords"]


@st.composite
def block_files(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    lines = FILES[name].splitlines()
    g = FAMILIES[name].geometry
    for op, i, j in draw(st.lists(st.tuples(
            st.sampled_from(EDITS), st.integers(0, 10 ** 4), st.integers(0, 10 ** 4)),
            max_size=4)):
        _edit(lines, op, i, j, g.field, g.ambient_dim)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


AG3_HEAD = "affgeo v1\nfield p=2 e=1 modulus=01\nspace kind=affine rank=3\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=block_files())
@example(text="affgeo v1\nfield p=2 e=1 modulus=01\nspace kind=affine rank=1\nblock\nrep\n")
@example(text="affgeo v1\nfield p=2 e=1 modulus=01\nspace kind=affine rank=1\nblock\n")
@example(text="affgeo v1\nfield p=2 e=1 modulus=01\nspace kind=affine rank=3\n"
              "block\nblock\nrep 0 1\n")
@example(text="affgeo v1\nfield p=2 e=1 modulus=01\nspace kind=affine rank=3\n"
              "dir 0 1 1\nblock\n")
@example(text="affgeo v1\nfield p=3 e=1 modulus=11\nspace kind=projective rank=2\n"
              "block\ndir 1 2\nblock\ndir 2 1\n")
# the seams of parse's block-by-block reader: a block line with more on it,
# blank lines in a block, two rep lines, CRLF endings, dir rows not in RREF,
# reps nonzero on the pivots, a block line that ends the file or the header
@example(text=AG3_HEAD + "block extra\nrep 0 1\ndir 1 0\nblock\nrep 0 0\ndir 1 0\n")
@example(text=AG3_HEAD + "block\nrep 0 1\n  \ndir 1 0\n\t\nblock\n\nrep 0 0\ndir 1 0\n\n")
@example(text=AG3_HEAD + "block\nrep 0 0\nrep 0 1\ndir 1 0\nblock\nrep 0 1\ndir 1 0\nrep 0 0\n")
@example(text=AG3_HEAD.replace("\n", "\r\n")
         + "block\r\nrep 0 1\r\ndir 1 0\r\nblock\r\nrep 0 0\r\ndir 1 0")
@example(text=AG3_HEAD.replace("3\n", "4\n") + "block\nrep 0 0 1\ndir 1 1 0\ndir 1 0 0\n"
              "block\nrep 0 0 0\ndir 0 1 1\ndir 1 1 1\n")
@example(text=AG3_HEAD + "block\nrep 1 1\ndir 1 0\nblock\nrep 1 0\ndir 1 0\n")
@example(text=AG3_HEAD + "block\nrep 0 1\ndir 1 0\nblock")
@example(text="affgeo v1\nfield p=2 e=1 modulus=01\nblock\nrep 0 1\n")
def test_parse_matches_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("name", sorted(FILES))
def test_parse_shares_one_direction_object_per_parallel_class(name):
    fam = parse(FILES[name])
    assert fam == reference_parse(FILES[name])
    if fam.geometry.kind == "affine":
        dirs = {}
        for b in fam.blocks:
            assert dirs.setdefault(b.dir, b.dir) is b.dir


# --- the FlatFamily check -----------------------------------------------------------

def reference_check(g, blocks):
    """The per-block check that FlatFamily.__post_init__ replaced."""
    if len(set(blocks)) != len(blocks):
        raise DesignError("blocks must be pairwise distinct")
    ranks = {flat_rank(b, g) for b in blocks}
    if len(ranks) > 1:
        raise DesignError(f"blocks have mixed ranks {sorted(ranks)}")


def _raised(call):
    try:
        call()
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return None


BASES = {
    "S(2,3,5)": affine_steiner(2, 2, 2),
    "q3-steiner": affine_steiner(2, 2, 3),
    "spread": desarguesian_spread(4, 2, 3),
}


def _twin(b):
    """An equal block on new direction and field objects."""
    K = pickle.loads(pickle.dumps(b.spec))
    if isinstance(b, LinearSubspace):
        return LinearSubspace(K, b.d, b.rows, b.pivots)
    if b.rep is None:
        return AffineFlat.empty(K, b.d)
    return AffineFlat(K, b.d, b.rep, LinearSubspace(K, b.d, b.dir.rows, b.dir.pivots))


def _foreign(b, how):
    K, d = b.spec, b.d
    if how == "spec":
        K = field_new(5) if K.p != 5 else field_new(7)
        if isinstance(b, LinearSubspace):
            return LinearSubspace.from_rows(K, d, b.rows)
        return AffineFlat.coset(b.rep, LinearSubspace.from_rows(K, d, b.dir.rows))
    if how == "d":
        pad = lambda v: v + (0,)
        if isinstance(b, LinearSubspace):
            return LinearSubspace.from_rows(K, d + 1, list(map(pad, b.rows)))
        return AffineFlat.coset(pad(b.rep), LinearSubspace.from_rows(
            K, d + 1, list(map(pad, b.dir.rows))))
    if how == "class":  # the other kind of flat, or not a flat at all
        if isinstance(b, LinearSubspace):
            return AffineFlat.coset((0,) * d, b)
        return b.dir
    return "not a flat"


_flats = functools.cache(enumerate_flats)


@st.composite
def families(draw):
    fam = BASES[draw(st.sampled_from(sorted(BASES)))]
    g, blocks = fam.geometry, list(fam.blocks)
    blocks = blocks[:draw(st.integers(0, len(blocks)))]
    K, d = g.field, g.ambient_dim
    for op, i, how in draw(st.lists(st.tuples(
            st.sampled_from(["dup", "twin", "rank", "foreign", "empty"]),
            st.integers(0, 10 ** 4), st.sampled_from(["spec", "d", "class", "object"])),
            max_size=3)):
        k, source = i % (len(blocks) + 1), fam.blocks[i % len(fam.blocks)]
        if op == "dup" and blocks:
            blocks.insert(k, blocks[i % len(blocks)])
        elif op == "twin":
            blocks.insert(k, _twin(source))
        elif op == "rank":
            flats = _flats(g, 1 + i % g.rank)
            blocks.insert(k, flats[i % len(flats)])
        elif op == "foreign":
            blocks.insert(k, _foreign(source, how))
        elif op == "empty":
            blocks.insert(k, AffineFlat.empty(K, d) if g.kind == "affine"
                          else LinearSubspace.zero(K, d))
    return g, tuple(blocks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=families())
def test_family_check_matches_the_reference_check(case):
    g, blocks = case
    assert (_raised(lambda: FlatFamily(g, blocks))
            == _raised(lambda: reference_check(g, blocks)))


@pytest.mark.parametrize("how", ["spec", "d", "class"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_family_check_rejects_blocks_all_foreign_alike(name, how):
    """Blocks all of one other field, or d, or kind of flat, as the check on
    the columns meets them when they are AffineFlats, fail as one by one."""
    fam = BASES[name]
    blocks = tuple(_foreign(b, how) for b in fam.blocks)
    raised = _raised(lambda: FlatFamily(fam.geometry, blocks))
    assert raised and raised == _raised(lambda: reference_check(fam.geometry, blocks))


@pytest.mark.parametrize("name", sorted(BASES))
def test_family_check_sees_equal_blocks_on_distinct_objects(name):
    fam = BASES[name]
    twin = _twin(fam.blocks[-1])
    assert twin == fam.blocks[-1] and twin.spec is not fam.blocks[-1].spec
    with pytest.raises(DesignError, match="pairwise distinct"):
        FlatFamily(fam.geometry, fam.blocks + (twin,))
    assert FlatFamily(fam.geometry, fam.blocks[:-1] + (twin,)) == fam


# --- the direction table ------------------------------------------------------------

AG4 = BASES["S(2,3,5)"].geometry


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=families())
@example(case=(AG4, ()))
@example(case=(AG4, (AffineFlat.empty(AG4.field, AG4.ambient_dim),)))
def test_direction_table_is_the_parallel_classes(case):
    g, blocks = case
    if _raised(lambda: FlatFamily(g, blocks)):
        return  # rejected: the check oracle above covers it
    fam = FlatFamily(g, blocks)
    if g.kind == "projective" or not blocks:
        assert fam.dirs == fam.dir_of == ()
        return
    assert len(fam.dir_of) == len(blocks)
    assert all(fam.dirs[j] == b.dir for j, b in zip(fam.dir_of, blocks))
    assert all(D != E for D, E in itertools.combinations(fam.dirs, 2))
    assert len(fam.dirs) == len({b.dir for b in blocks})  # the old parallel_classes
    assert fam.dirs == tuple(dict.fromkeys(b.dir for b in blocks))  # first appearance


def _twinned(fam):
    """fam with every other block replaced by its _twin."""
    return FlatFamily(fam.geometry, tuple(
        _twin(b) if i % 2 else b for i, b in enumerate(fam.blocks)))


@pytest.mark.parametrize("name", sorted(BASES))
def test_twin_directions_share_one_table_entry(name):
    fam = BASES[name]
    twin = _twinned(fam)
    assert twin == fam and FlatFamily._fields == ("geometry", "blocks")
    assert (twin.dirs, twin.dir_of) == (fam.dirs, fam.dir_of)
    assert pickle.loads(pickle.dumps(twin)).dir_of == fam.dir_of
    if fam.geometry.kind == "projective":
        assert fam.dirs == ()
    else:
        assert len({id(b.dir) for b in twin.blocks}) > len(twin.dirs) > 1


def _respelled(fam):
    """fam parsed back from its file with every other block's dir rows
    respelled (r1 + r0, r0, ...): parse merges each respelled basis into
    the entry of dirs its class already has, one direction object a class."""
    g = fam.geometry
    lines = render(fam).splitlines()
    for i in range(1, len(fam.blocks), 2):
        _edit(lines, "basis", i, 0, g.field, g.ambient_dim)
    return parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("how", ["twin", "basis"])
@pytest.mark.parametrize("q", [2, 3])
def test_readers_agree_on_twin_directions(q, how):
    """The readers give the same results on a respelled file and on twin
    direction objects; "twin" alone runs them on equal distinct objects."""
    fam = affine_steiner(2, 3, 2) if q == 2 else affine_steiner(2, 2, 3)
    other = _respelled(fam) if how == "basis" else _twinned(fam)
    assert other == fam
    if how == "twin":
        assert len({id(b.dir) for b in other.blocks}) > len(other.dirs)
    else:  # parse reads a respelled basis into the entry of dirs its class has
        assert len({id(b.dir) for b in other.blocks}) == len(other.dirs) == len(fam.dirs)
    assert other.point_blocks == fam.point_blocks
    for t in (1, 2):
        assert verify_design(other, t) == verify_design(fam, t)
    assert max_pairwise_meet_rank(other) == max_pairwise_meet_rank(fam)
    assert expand_affine_design(other, 2) == expand_affine_design(fam, 2)
    dag = NetworkConfig(layers=3, width=8, drop_prob=Fraction(1, 10))
    for cfg, forced in ((dag, None), (NetworkConfig(), None), (dag, 1), (dag, 2)):
        assert (run_trials(other, cfg, 200, 7, forced)
                == run_trials(fam, cfg, 200, 7, forced))


def test_family_check_compares_fields_by_identity_then_by_value(monkeypatch):
    """Blocks on equal but distinct FieldSpec objects are one field; blocks
    over two fields are foreign, as the per-block check found.  parse and
    translate_closure, which give columns, never hash a FieldSpec per block."""
    fam = BASES["S(2,3,5)"]
    twins = tuple(map(_twin, fam.blocks))
    assert len({id(b.spec) for b in twins}) == len(twins)
    again = FlatFamily(fam.geometry, twins)
    assert again == fam and _columns(again) == _columns(fam)
    other = AffineFlat.coset(fam.blocks[0].rep, LinearSubspace.from_rows(
        field_new(3), fam.geometry.ambient_dim, fam.blocks[0].dir.rows))
    for blocks in (fam.blocks + (other,), (other,) + twins):
        assert (_raised(lambda: FlatFamily(fam.geometry, blocks))
                == _raised(lambda: reference_check(fam.geometry, blocks))
                == (GeometryError, "flat does not belong to this affine geometry"))
    big, hashed, field_hash = affine_steiner(2, 4, 2), [], FieldSpec.__hash__
    text, spread = render(big), through_zero(big)
    monkeypatch.setattr(FieldSpec, "__hash__", lambda K: hashed.append(K) or field_hash(K))
    assert len(parse(text)) == 5440 and len(hashed) <= len(big.dirs) < 5440  # per direction
    assert len(translate_closure(spread)) == 5440 and len(hashed) <= len(big.dirs)


# --- the columns ------------------------------------------------------------------

COLUMN_FAMILIES = {  # the decode and load oracles' families, and larger ones
    "S(2,3,5)": lambda: affine_steiner(2, 2, 2),
    "S(2,3,7)": lambda: affine_steiner(2, 3, 2),
    "S(2,3,9)": lambda: affine_steiner(2, 4, 2),
    "q3-steiner": lambda: affine_steiner(2, 2, 3),
    "s2-f4": lambda: affine_steiner(2, 2, 4),
    "ag32-planes": lambda: complete_design(affine_geometry(field_new(2), 4), 3),
    "ag33-planes": lambda: complete_design(affine_geometry(field_new(3), 4), 3),
    "poly-q3": lambda: affine_poly_code(3, 2, 2, 2),
    "poly-q19": lambda: affine_poly_code(19, 2, 1, 1),
    "poly-F512": lambda: affine_poly_code(2, 9, 1, 1),
    "spread": lambda: desarguesian_spread(4, 2, 3),
    "spread-k3": lambda: desarguesian_spread(6, 3, 2),
}


def _columns(fam):
    return fam.dirs, fam.dir_of, fam.reps, fam.block_at


@pytest.mark.parametrize("source", ["made", "parsed"])
@pytest.mark.parametrize("name", sorted(COLUMN_FAMILIES))
def test_columns_are_those_of_the_blocks_they_make(name, source):
    """A family as its producer or parse makes it equals FlatFamily(g,
    fam.blocks), with the same hash, repr and columns, and survives a
    pickle round trip; its blocks shuffled give the same canonical family,
    order and file."""
    fam = COLUMN_FAMILIES[name]()
    fam = parse(render(fam)) if source == "parsed" else fam
    again = FlatFamily(fam.geometry, fam.blocks)
    assert again == fam and hash(again) == hash(fam) and repr(again) == repr(fam)
    assert _columns(again) == _columns(fam)
    if fam.geometry.kind == "affine":  # a projective family keeps its blocks
        assert [(b.rep, b.dir) for b in fam.blocks] == [
            (r, fam.dirs[j]) for r, j in zip(fam.reps, fam.dir_of)]
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam and _columns(back) == _columns(fam)
    blocks = list(fam.blocks)
    random.Random(len(blocks)).shuffle(blocks)
    shuffled = FlatFamily(fam.geometry, tuple(blocks))
    assert canonical(shuffled) == canonical(fam)
    assert parse(render(shuffled)) == canonical(fam)
    assert render(shuffled) == render(fam)


def test_render_of_a_constructed_family_sorts_nothing(monkeypatch):
    """translate_closure makes its cosets in sort_key order, so render
    checks the order from the columns and neither sorts nor builds the
    blocks: no sort_key or sorted call."""
    fam, calls = affine_steiner(2, 4, 2), []
    for cls in (AffineFlat, LinearSubspace):
        key = cls.sort_key
        monkeypatch.setattr(cls, "sort_key", lambda b, key=key: calls.append(b) or key(b))
    monkeypatch.setattr(blockfile, "sorted", lambda *a, **k: calls.append(a) or sorted(*a, **k),
                        raising=False)
    text = render(fam)
    assert not calls and "blocks" not in vars(fam)
    shuffled = FlatFamily.from_columns(fam.geometry, fam.dirs, fam.dir_of[::-1], fam.reps[::-1])
    assert render(shuffled) == text and calls  # out of order: sorted, by the columns
    calls.clear()
    assert len(fam.blocks) == 5440 and text == render_oracle_s9()
    assert calls  # the oracle sorts


def render_oracle_s9():
    """S(2,3,9)'s file as one line per record, its blocks sorted by sort_key."""
    fam = affine_steiner(2, 4, 2)
    K = fam.geometry.field
    spell = functools.cache(lambda v: " ".join(map(K.digits, v)))
    lines = render(FlatFamily(fam.geometry, ())).splitlines()
    for b in sorted(fam.blocks, key=lambda x: x.sort_key()):
        lines += ["block", "rep " + spell(b.rep)] + ["dir " + spell(r) for r in b.dir.rows]
    return "\n".join(lines) + "\n"
