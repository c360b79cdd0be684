import contextlib
import functools
import hashlib
import io
import os
import random
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affgeo import (FlatFamily, affine_geometry, affine_poly_code,
                    affine_steiner, blockfile, codes, complete_design,
                    desarguesian_spread, expand_affine_design, field_new,
                    projective_geometry)
from affgeo.blockfile import (MAGIC, ParseError, parse, parse_classical,
                              render, render_classical)
from affgeo.cli import main
from affgeo.flatspace import vec_add
from canonical_order import canonical


def test_blockfile_roundtrip_affine():
    fam = canonical(affine_steiner(2, 2, 2))
    text = render(fam)
    assert text.startswith("affgeo v1\nfield p=2 e=1 modulus=01\n"
                           "space kind=affine rank=5\n")
    assert parse(text) == fam
    assert render(parse(text)) == text  # bit-exact on the second pass


def test_blockfile_roundtrip_projective():
    fam = canonical(desarguesian_spread(4, 2, 3))
    text = render(fam)
    assert "space kind=projective rank=4" in text
    assert parse(text) == fam


def test_blockfile_extension_field_modulus():
    F4 = field_new(2, 2)
    fam = canonical(complete_design(projective_geometry(F4, 2), 1))
    text = render(fam)
    assert "field p=2 e=2 modulus=111" in text
    assert parse(text) == fam


def test_blockfile_rejects_garbage():
    with pytest.raises(ParseError):
        parse("not a blockfile\n")
    good = render(affine_steiner(2, 2, 2))
    with pytest.raises(ParseError):
        parse(good.replace("modulus=01", "modulus=11"))
    with pytest.raises(ParseError):
        parse(good + "wat 0 0 0 0\n")


@pytest.mark.parametrize("make", [lambda: affine_steiner(2, 3, 2),
                                  lambda: affine_steiner(2, 2, 3)],
                         ids=["S(2,3,7)", "q3-steiner"])
def test_blockfile_noncanonical_text_parses_to_canonical(make):
    """Shuffled blocks, other bases and other reps read as the same family."""
    fam = make()
    K = fam.geometry.field
    canon = render(fam)

    def spell(v):
        return " ".join(map(K.digits, v))

    blocks = list(fam.blocks)
    random.Random(3).shuffle(blocks)
    lines = canon.splitlines()[:3]
    for b in blocks:
        r0, r1 = b.dir.rows  # another basis: swap the rows, add one to the other
        rows = [vec_add(K, r1, r0), r0]
        # the same raw dir text for every block parallel to b, each rep moved
        lines += ["block", "rep " + spell(vec_add(K, b.rep, r1))]
        lines += ["dir " + spell(r) for r in rows]
    text = "\n".join(lines) + "\n"
    assert text != canon
    assert canonical(parse(text)) == parse(canon)  # parse keeps the file's order
    assert render(parse(text)) == canon


def render_oracle(fam):
    """render as it was written before it built one string per block: a
    list of lines, four or more appended per block."""
    g = fam.geometry
    K = g.field
    modulus = ("" if K.p <= 10 else ",").join(str(c) for c in K.modulus)
    lines = [MAGIC,
             f"field p={K.p} e={K.e} modulus={modulus}",
             f"space kind={g.kind} rank={g.rank}"]
    spell = functools.cache(lambda v: " ".join(map(K.digits, v)))
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


def noncanonical_s7():
    """S(2,3,7) parsed from text with its blocks reversed and every dir
    pair written as (r0 + r1, r1), which is not in RREF."""
    fam = affine_steiner(2, 3, 2)
    K = fam.geometry.field
    lines = render(fam).splitlines()[:3]
    for b in reversed(fam.blocks):
        r0, r1 = b.dir.rows
        lines += ["block", "rep " + " ".join(map(K.digits, b.rep))]
        lines += ["dir " + " ".join(map(K.digits, r)) for r in (vec_add(K, r0, r1), r1)]
    text = "\n".join(lines) + "\n"
    assert text != render(fam)
    fam = parse(text)  # in the file's order
    assert list(fam.blocks) != sorted(fam.blocks, key=lambda b: b.sort_key())
    return fam


@pytest.mark.parametrize("make", [
    lambda: affine_steiner(2, 3, 2),
    lambda: desarguesian_spread(4, 2, 4),
    lambda: affine_poly_code(19, 2, 1, 1),
    noncanonical_s7,
    lambda: FlatFamily(affine_geometry(field_new(2), 3), ()),
], ids=["S(2,3,7)", "q4-spread", "q19-poly", "noncanonical-S(2,3,7)", "empty"])
def test_render_matches_line_at_a_time_oracle(make):
    fam = make()
    assert render(fam).encode() == render_oracle(fam).encode()


def test_classical_roundtrip():
    cd = expand_affine_design(affine_steiner(2, 2, 2), 2)
    text = render_classical(cd)
    assert text.splitlines()[0] == "16 20 4"
    back = parse_classical(text)
    assert back.point_count == 16
    assert set(back.blocks) == set(cd.blocks)
    assert render_classical(back) == text


def test_classical_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_classical("4 2 2\n0 1\n0 1 2\n")


def test_cli_construct_verify_analyze(tmp_path, capsys):
    out = tmp_path / "steiner.blocks"
    assert main(["construct", "affine-steiner", "--q", "2", "--k", "2",
                 "--l", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "blocks=20" in captured

    assert main(["verify", str(out), "--t", "2"]) == 0
    captured = capsys.readouterr().out
    assert "lambda=1" in captured and "blocks=20" in captured

    assert main(["analyze", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "parallel_classes=5" in captured
    assert "max_meet_rank=1" in captured
    assert "radius=1" in captured


def test_cli_analyze_s239_report(tmp_path, capsys):
    out = tmp_path / "s9.blocks"
    assert main(["construct", "affine-steiner", "--q", "2", "--k", "2",
                 "--l", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    assert capsys.readouterr().out == (
        "kind=affine\nn=9\nk=3\nblocks=5440\nparallel_classes=85\n"
        "skew=false\nmax_meet_rank=1\nradius=1\n")


def test_cli_analyze_computes_meet_rank_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s5.blocks"
    assert main(["construct", "affine-steiner", "--q", "2", "--k", "2",
                 "--l", "2", "--out", str(out)]) == 0
    calls = []
    meet_rank = codes.max_pairwise_meet_rank

    def counting(fam):
        calls.append(fam)
        return meet_rank(fam)

    monkeypatch.setattr(codes, "max_pairwise_meet_rank", counting)
    assert main(["analyze", str(out)]) == 0
    assert len(calls) == 1
    assert "radius=1" in capsys.readouterr().out


@pytest.mark.parametrize("ell", [3, 4], ids=["S(2,3,7)", "S(2,3,9)"])
def test_cli_never_builds_the_block_tuple(tmp_path, monkeypatch, capsys, ell):
    """verify, analyze, expand and a forced simulate of an affine file read
    the family's columns: fam.blocks is never built."""
    path, out = str(tmp_path / "s.blocks"), str(tmp_path / "s.txt")
    assert main(["construct", "affine-steiner", "--q", "2", "--k", "2", "--l", str(ell),
                 "--out", path]) == 0
    loaded, parse = [], blockfile.parse
    monkeypatch.setattr(blockfile, "parse", lambda text: loaded.append(parse(text)) or loaded[-1])
    for argv in (["verify", path, "--t", "2"], ["analyze", path],
                 ["expand", path, "--mode", "affine-2", "--out", out],
                 ["simulate", path, "--trials", "100", "--forced-deletions", "1"]):
        assert main(argv) == 0
    assert len(loaded) == 4 and not any("blocks" in vars(fam) for fam in loaded)
    assert "successes=100\n" in capsys.readouterr().out


def test_cli_roundtrip_byte_identical(tmp_path):
    a = tmp_path / "a.blocks"
    b = tmp_path / "b.blocks"
    assert main(["construct", "spread", "--q", "2", "--n", "4", "--k", "2",
                 "--out", str(a)]) == 0
    fam = parse(a.read_text())
    b.write_text(render(fam))
    assert a.read_bytes() == b.read_bytes()


def test_cli_expand(tmp_path, capsys):
    blocks = tmp_path / "planes.blocks"
    assert main(["construct", "complete", "--q", "2", "--kind", "affine",
                 "--n", "4", "--k", "3", "--out", str(blocks)]) == 0
    capsys.readouterr()
    out = tmp_path / "sqs8.design"
    assert main(["expand", str(blocks), "--mode", "affine-3",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "v=8" in captured and "b=14" in captured and "k=4" in captured
    assert parse_classical(out.read_text()).point_count == 8


def test_cli_simulate(tmp_path, capsys):
    blocks = tmp_path / "code.blocks"
    main(["construct", "affine-steiner", "--q", "2", "--k", "2", "--l", "3",
          "--out", str(blocks)])
    capsys.readouterr()
    assert main(["simulate", str(blocks), "--trials", "100", "--seed", "42",
                 "--forced-deletions", "1"]) == 0
    out = capsys.readouterr().out
    assert "trials=100" in out
    assert "successes=100" in out
    assert "rng-id=splitmix64" in out


def test_cli_exit_codes(tmp_path, capsys):
    # 2: bad parameters
    assert main(["construct", "spread", "--q", "2", "--n", "5", "--k", "2",
                 "--out", str(tmp_path / "x")]) == 2
    # 4: parse failure
    bad = tmp_path / "bad.blocks"
    bad.write_text("junk\n")
    assert main(["verify", str(bad), "--t", "2"]) == 4
    assert main(["verify", str(tmp_path / "missing"), "--t", "2"]) == 4
    # 5: verification failure
    good = tmp_path / "lines.blocks"
    main(["construct", "complete", "--q", "2", "--kind", "affine",
          "--n", "3", "--k", "2", "--out", str(good)])
    text = good.read_text()
    header, rest = text.split("block", 1)
    good.write_text(header + "block" + rest.rsplit("block", 1)[0])
    assert main(["verify", str(good), "--t", "2"]) == 5
    out = capsys.readouterr().out
    assert "violation=1" in out


def test_cli_guard_exit(capsys, tmp_path):
    assert main(["construct", "complete", "--q", "5", "--kind", "affine",
                 "--n", "13", "--k", "6", "--out", str(tmp_path / "big")]) == 3


def test_cli_simulate_dag_guard_exit(tmp_path, capsys):
    """A DAG of 10^8 nodes would peek 3 * 10^8 draws per trial: exit 3 before
    any is drawn.  Forced deletions build no DAG, so its size is no bar there."""
    blocks = tmp_path / "s7.blocks"
    main(["construct", "affine-steiner", "--q", "2", "--k", "2", "--l", "3",
          "--out", str(blocks)])
    capsys.readouterr()
    dag = ["simulate", str(blocks), "--trials", "1", "--layers", "1000", "--width", "100000"]
    assert main(dag) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "draws per trial" in err
    assert main([*dag, "--forced-deletions", "1"]) == 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps memory on Linux")
def test_cli_simulate_out_of_memory_exit(tmp_path):
    """A trial of exactly 10^7 draws passes the draw guard, but under a 512 MB
    address-space cap its draws do not fit: exit 3 with one error line, not a
    MemoryError traceback.  The command runs in a child process under the cap."""
    import resource
    import subprocess
    main(["construct", "affine-steiner", "--q", "2", "--k", "2", "--l", "3",
          "--out", str(tmp_path / "s7.blocks")])
    cap = 512 * 2 ** 20
    child = subprocess.run(
        [sys.executable, "-m", "affgeo.cli", "simulate", "s7.blocks", "--trials", "1",
         "--layers", "1", "--width", "3333332"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)), timeout=120)
    assert (child.returncode, child.stdout) == (3, "")
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["poly-code", "--q", "2", "--m", "9", "--l", "2", "--t", "3"],  # 512^3 blocks
    ["affine-steiner", "--q", "2", "--k", "2", "--l", "12"],
    ["spread", "--q", "2", "--n", "25", "--k", "1"],
    ["spread", "--q", "2", "--n", "20000", "--k", "1"],  # a 6021-digit count
    ["complete", "--q", "2", "--kind", "affine", "--n", "20000", "--k", "2"],
], ids=["poly-code", "affine-steiner", "spread", "spread-huge", "complete-huge"])
def test_cli_construction_guard_exit(tmp_path, capsys, argv):
    """The closed-form block count is checked before any block is built."""
    capsys.readouterr()
    out = tmp_path / "big.blocks"
    assert main(["construct", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceed the guard" in err and not out.exists()


# SHA-256 of the block files written by `construct`, recorded before the
# row kernel, coset enumerator and tally were merged; outputs must not move.
CONSTRUCT_DIGESTS = [
    (["spread", "--q", "3", "--n", "4", "--k", "2"],
     "9fd20ea34846c7bc3139dc02098db266cd76ce75490be9081130a5c4e5b6655f"),
    (["poly-code", "--q", "2", "--m", "3", "--l", "3", "--t", "3"],
     "d89a428626e1fc9bdc449a9b1047b14c863ddf769b70abbd73f55fc7eedb9c15"),
    (["complete", "--q", "3", "--kind", "affine", "--n", "3", "--k", "2"],
     "fe2dd366a650e8a3587d3f7115bdec7556d0de88df6ab1d18f42659789496198"),
    (["affine-steiner", "--q", "2", "--k", "2", "--l", "3"],
     "b78479798886674f1bdf719b7602cc4a0ddcee4757140c9a9f73b48aae7ebdb6"),
]


@pytest.mark.parametrize("argv,digest", CONSTRUCT_DIGESTS,
                         ids=[a[0] for a, _ in CONSTRUCT_DIGESTS])
def test_cli_construct_block_file_digests(tmp_path, capsys, argv, digest):
    out = tmp_path / "f.blocks"
    assert main(["construct", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "empty.blocks").write_text(
        "affgeo v1\nfield p=2 e=1 modulus=01\nspace kind=affine rank=4\n")
    # S(2,3,5): rank-3 blocks, so at most 2 forced deletions
    assert main(["construct", "affine-steiner", "--q", "2", "--k", "2",
                 "--l", "2", "--out", str(root / "s5.blocks")]) == 0
    return root


@pytest.mark.parametrize("argv,code,message", [
    (["verify", "{d}/empty.blocks", "--t", "2"], 2, "empty family"),
    (["analyze", "{d}/empty.blocks"], 2, "empty family"),
    (["verify", "{d}/s5.blocks", "--t", "-1"], 2, "t=-1"),
    (["construct", "spread", "--q", "2", "--n", "0", "--k", "0",
      "--out", "{d}/x.blocks"], 2, "k >= 1"),
    (["simulate", "{d}/s5.blocks", "--trials", "3",
      "--forced-deletions", "5"], 2, "forced deletions"),
    (["simulate", "{d}/s5.blocks", "--trials", "3",
      "--forced-deletions", "-1"], 2, "forced deletions"),
    (["simulate", "{d}/s5.blocks", "--trials", "-3"], 2, "trials"),
], ids=["verify-empty", "analyze-empty", "verify-negative-t",
        "spread-k0", "forced-above-k", "forced-negative", "trials-negative"])
def test_cli_bad_input_exit_codes(contract_files, capsys, argv, code, message):
    capsys.readouterr()
    argv = [a.format(d=contract_files) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# --- CLI contract fuzz: every argv and every input file exits 0/2/3/4/5 ---------

FUZZ_BASES = {
    "s5": ["affine-steiner", "--q", "2", "--k", "2", "--l", "2"],
    "spread3": ["spread", "--q", "3", "--n", "4", "--k", "2"],
    "poly4": ["poly-code", "--q", "4", "--m", "2", "--l", "1", "--t", "1"],
    "lines9": ["complete", "--q", "9", "--kind", "affine", "--n", "3", "--k", "2"],
}
FUZZ_OPTIONS = {
    "spread": ("--n", "--k"),
    "affine-steiner": ("--k", "--l"),
    "poly-code": ("--m", "--l", "--t"),
    "complete": ("--n", "--k"),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in FUZZ_BASES.items():
            assert main(["construct", *argv, "--out", str(root / name)]) == 0
    return root


def _mutate(text, edits):
    """Drop, duplicate or garble lines; garbling replaces or deletes one char."""
    lines = text.splitlines(keepends=True)
    for op, i, j, ch in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            j %= max(len(lines[i]), 1)
            lines[i] = lines[i][:j] + ch + lines[i][j + 1:]
    return "".join(lines)


@st.composite
def cli_cases(draw):
    """An argv (with {d} for the work directory) and an optional edit list
    for the input block file, which is one of FUZZ_BASES, s5 followed by the
    byte 0xff (not UTF-8), or missing."""
    def num(lo=-1, hi=2):
        return str(draw(st.integers(lo, hi)))

    command = draw(st.sampled_from(
        ["construct", "verify", "analyze", "expand", "simulate"]))
    base = edits = None
    if command == "construct":
        construction = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
        argv = ["construct", construction, "--q",
                str(draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 9])))]
        for opt in FUZZ_OPTIONS[construction]:
            argv += [opt, num()]
        if construction == "complete":
            argv += ["--kind", draw(st.sampled_from(["affine", "projective"]))]
        argv += ["--out", draw(st.sampled_from(
            ["{d}/out.blocks", "", "{d}/", "{d}/missing/out.blocks", "{d}"]))]
    else:
        base = draw(st.sampled_from([*FUZZ_BASES, "s5+0xff", "missing"]))
        edits = draw(st.lists(st.tuples(
            st.sampled_from(["drop", "dup", "garble"]),
            st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
            st.sampled_from(["", "0", "1", "2", "9", "x", " ", "=", ",", "-"])),
            max_size=3))
        argv = [command, "{d}/in.blocks"]
        if command == "verify":
            argv += ["--t", num(-1, 3)]
        elif command == "expand":
            argv += ["--mode", draw(st.sampled_from(
                ["subspace", "affine-2", "affine-3", "ev11"])),
                "--out", draw(st.sampled_from(
                    ["{d}/out.design", "", "{d}/", "{d}/missing/out.design", "{d}"]))]
        elif command == "simulate":
            argv += ["--trials", num(-1, 3), "--seed", num(0, 3),
                     "--layers", num(), "--width", num(), "--indegree", num(),
                     "--sink-indegree", num(),
                     "--drop-prob", draw(st.sampled_from(
                         ["0", "1/3", "1", "3/2", "-1/2", "1/0", "x"]))]
            if draw(st.booleans()):
                argv += ["--forced-deletions", num(-1, 3)]
    damage = draw(st.sampled_from([None, "drop", "junk"]))
    if damage:
        i = draw(st.integers(0, len(argv) - 1))
        argv[i:i + 1] = [] if damage == "drop" else ["-7"]
    return argv, base, edits


@settings(max_examples=150, deadline=10000, derandomize=True)
@given(case=cli_cases())
@example(case=(["verify", "{d}/in.blocks", "--t", "0"], "s5",
               [("garble", 4, 4, "2")]))  # digit 2 in a file over F_2
@example(case=(["construct", "complete", "--q", "2", "--n", "1", "--k", "0",
                "--kind", "affine", "--out", "{d}/out.blocks"], None, None))
@example(case=(["construct", "affine-steiner", "--q", "2", "--k", "1", "--l", "2",
                "--out", ""], None, None))  # names no file: nothing is written
@example(case=(["construct", "affine-steiner", "--q", "2", "--k", "1", "--l", "2",
                "--out", "{d}/"], None, None))
@example(case=(["construct", "affine-steiner", "--q", "2", "--k", "1", "--l", "2",
                "--out", "{d}/missing/out.blocks"], None, None))  # no such directory
@example(case=(["construct", "affine-steiner", "--q", "2", "--k", "1", "--l", "2",
                "--out", "{d}"], None, None))  # a directory: the .tmp is written, then removed
@example(case=(["verify", "{d}/in.blocks", "--t", "2"], "s5+0xff", []))
def test_cli_contract_fuzz(fuzz_dir, case):
    argv, base, edits = case
    target = fuzz_dir / "in.blocks"
    target.unlink(missing_ok=True)
    if base in FUZZ_BASES:
        target.write_text(_mutate((fuzz_dir / base).read_text(), edits))
    elif base == "s5+0xff":
        target.write_bytes(_mutate((fuzz_dir / "s5").read_text(), edits).encode() + b"\xff")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:  # returns 2 for a bad argv, never exits
            code = main([a.format(d=fuzz_dir) for a in argv])
        except Exception:  # what `python -m affgeo.cli` shows before it exits 1
            traceback.print_exc()
            code = 1
    assert code in (0, 2, 3, 4, 5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    strays = [*fuzz_dir.glob("*.tmp"), *Path().glob(".tmp"), Path(f"{fuzz_dir}.tmp")]
    assert not [p for p in strays if p.exists()], argv  # no stray temp file
