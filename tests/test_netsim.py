from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affgeo import (Ambiguity, Erasure, GuardExceeded, NetworkConfig, SplitMix64, TrialStats,
                    aff_closure, affine_geometry, affine_poly_code, affine_steiner,
                    complete_design, decode, field_new, propagate, run_trials,
                    trial_rng)
from affgeo.flatspace import combine, rref_rows, vec_add

F2 = field_new(2)
CFG = NetworkConfig(layers=1, width=4, indegree=2,
                    drop_prob=Fraction(0), sink_indegree=4)


# The drop and coefficient draws of the one-pass oracle below; src/ draws
# both inside propagate and has no other caller for them.
def chance(rng, prob):
    """below(n) < a for prob = a/n; no draw when prob is 0 or 1.  u64 % n
    is not exactly uniform, so True's chance differs from a/n by at most
    n/2^64: the seeded stream keeps that rather than rejection sampling."""
    a, n = prob.numerator, prob.denominator
    return rng.below(n) < a if 0 < a < n else a > 0


def random_affine_coeffs(rng, K, s):
    """s coefficients summing to 1: first s-1 uniform, last forced."""
    if s < 1:
        raise ValueError("need at least one coefficient")
    coeffs, total = [rng.next_u64() % K.order for _ in range(s - 1)], 0
    for c in coeffs:
        total = K.add(total, c)
    return coeffs + [K.sub(1, total)]


def test_splitmix64_reference_vector():
    # seed 0: first outputs of the standard SplitMix64 stream
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_trial_rng_substreams_differ_and_repeat():
    a1 = [trial_rng(7, 0).next_u64() for _ in range(4)]
    a2 = [trial_rng(7, 0).next_u64() for _ in range(4)]
    b = [trial_rng(7, 1).next_u64() for _ in range(4)]
    assert a1 == a2
    assert a1 != b


def test_chance_exact_extremes():
    rng = SplitMix64(1)
    assert not any(chance(rng, Fraction(0)) for _ in range(100))
    assert all(chance(rng, Fraction(1)) for _ in range(100))


def test_chance_frequency_within_3_sigma():
    rng = SplitMix64(5)
    n = 10_000
    hits = sum(chance(rng, Fraction(1, 4)) for _ in range(n))
    # mean 2500, sigma = sqrt(n * 3/16) ~ 43.3
    assert abs(hits - 2500) <= 3 * 44


def test_affine_coeffs_sum_to_one():
    F3 = field_new(3)
    rng = SplitMix64(9)
    for s in (1, 2, 3, 5):
        coeffs = random_affine_coeffs(rng, F3, s)
        assert len(coeffs) == s
        total = 0
        for c in coeffs:
            total = F3.add(total, c)
        assert total == 1


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(layers=0)
    with pytest.raises(ValueError):
        NetworkConfig(drop_prob=Fraction(3, 2))


def test_propagate_stays_in_sent_flat():
    code = affine_steiner(2, 3, 2)
    block = code.blocks[17]
    pts = [block.rep] + [tuple(F2.add(a, b) for a, b in zip(block.rep, r))
                         for r in block.dir.rows]
    rng = trial_rng(3, 0)
    for _ in range(50):
        out = propagate(CFG, F2, pts, rng)
        for v in out:
            assert block.contains_vector(v)


def test_propagate_all_drops_gives_empty():
    cfg = NetworkConfig(layers=1, width=4, indegree=2,
                        drop_prob=Fraction(1), sink_indegree=4)
    out = propagate(cfg, F2, [(0, 0), (1, 0)], SplitMix64(0))
    assert out == []


def test_run_trials_deterministic():
    code = affine_steiner(2, 3, 2)
    a = run_trials(code, CFG, 200, seed=42)
    b = run_trials(code, CFG, 200, seed=42)
    assert a == b
    c = run_trials(code, CFG, 200, seed=43)
    assert a != c


def test_run_trials_regression_baseline_seed42():
    # frozen regression values for the shipped configuration
    code = affine_steiner(2, 3, 2)
    stats = run_trials(code, CFG, 1000, seed=42)
    assert stats.successes == 817
    assert stats.ambiguities == 183
    assert stats.erasures == 0
    assert stats.mean_received_rank == Fraction(197, 100)


def test_run_trials_forced_deletion_radius():
    code = affine_steiner(2, 3, 2)  # correction radius 1
    stats = run_trials(code, CFG, 500, seed=7, forced_deletions=1)
    assert stats.successes == 500
    assert stats.mean_received_rank == Fraction(2)


def test_run_trials_drop_everything():
    code = affine_steiner(2, 3, 2)
    cfg = NetworkConfig(layers=1, width=4, indegree=2,
                        drop_prob=Fraction(1), sink_indegree=4)
    stats = run_trials(code, cfg, 50, seed=1)
    assert stats.erasures == 50 and stats.successes == 0


def test_run_trials_runs_no_trial_of_the_empty_flat():
    code = complete_design(affine_geometry(F2, 3), 0)  # the empty flat, direction None
    assert code.dirs == (None,)
    assert run_trials(code, CFG, 0, seed=1) == TrialStats(0, 0, 0, 0, Fraction(0), 1)


def test_propagate_full_rank_regression_seed99():
    # with indegree 2 over F_2 mixing is rare; frozen baseline
    sources = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
               (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    hits = 0
    for i in range(2000):
        out = propagate(CFG, F2, sources, trial_rng(99, i))
        base = out[0] if out else None
        diffs = [tuple(F2.sub(a, b) for a, b in zip(v, base)) for v in out[1:]]
        rows, _ = rref_rows(F2, diffs, 6) if diffs else ((), ())
        if out and len(rows) == 3:
            hits += 1
    assert hits == 9


def test_render_format():
    code = affine_steiner(2, 3, 2)
    stats = run_trials(code, CFG, 10, seed=4)
    text = stats.render()
    assert text.splitlines()[0] == "trials=10"
    assert "rng-id=splitmix64" in text
    assert "seed=4" in text
    assert text.endswith("\n")


def _splitmix64_outputs(state, count):
    """Reference SplitMix64 (Steele, Lea & Flood 2014), written out once more."""
    mask = (1 << 64) - 1
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def test_below_is_next_u64_mod_n_on_twin_generators():
    for n in (1, 2, 3, 19, 512, 2 ** 32 + 15, 2 ** 64 - 1):
        a, b = SplitMix64(n), SplitMix64(n)
        assert [a.below(n) for _ in range(10_000)] == \
               [b.next_u64() % n for _ in range(10_000)]
    rng = SplitMix64(2 ** 64 + 5)  # the seed is taken mod 2^64
    assert [rng.next_u64() for _ in range(10_000)] == list(_splitmix64_outputs(5, 10_000))


def test_chance_matches_its_formula_on_twin_generators():
    def old_chance(rng, prob):
        a, n = prob.numerator, prob.denominator
        if a <= 0:
            return False
        if a >= n:
            return True
        return rng.next_u64() % n < a

    for prob in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(5, 7),
                 Fraction(2 ** 64 - 1, 2 ** 64), Fraction(1)):
        a, b = SplitMix64(17), SplitMix64(17)
        assert [chance(a, prob) for _ in range(10_000)] == \
               [old_chance(b, prob) for _ in range(10_000)]
        assert a.next_u64() == b.next_u64()  # the same number of draws


def _report(stats):
    return (stats.successes, stats.ambiguities, stats.erasures,
            stats.mean_received_rank)


def test_dag_baseline_poly_code_q19_seed11():
    code = affine_poly_code(19, 2, 1, 1)
    cfg = NetworkConfig(layers=2, width=4, drop_prob=Fraction(1, 5))
    assert _report(run_trials(code, cfg, 300, seed=11)) == \
        (296, 0, 4, Fraction(247, 150))


def test_dag_baseline_steiner_f4_seed12():
    code = affine_steiner(2, 2, 4)
    cfg = NetworkConfig(layers=3, width=6, drop_prob=Fraction(1, 10))
    assert _report(run_trials(code, cfg, 300, seed=12)) == \
        (247, 53, 0, Fraction(617, 300))


def test_forced_deletion_baseline_steiner_f4_seed13():
    code = affine_steiner(2, 2, 4)
    stats = run_trials(code, NetworkConfig(), 300, seed=13, forced_deletions=1)
    assert _report(stats) == (300, 0, 0, Fraction(2))


# The one-pass propagate that the two-pass one replaced, kept as its oracle.
def _propagate_one_pass(cfg, spec, sources, rng):
    """Push vectors through the layered DAG; returns the sink vectors.

    Each node samples cfg.indegree edges from the previous layer; an
    edge delivers nothing with probability drop_prob or when its tail
    node holds nothing.  A node with no surviving inputs emits nothing.
    """
    if not sources:
        raise ValueError("propagate needs at least one source vector")
    prev = list(sources)
    below, p = rng.below, cfg.drop_prob

    def gather(n_edges, pool):
        got, m = [], len(pool)
        for _ in range(n_edges):
            v = pool[below(m)]
            if v is not None and not chance(rng, p):
                got.append(v)
        return got

    for _ in range(cfg.layers):
        layer = []
        for _node in range(cfg.width):
            inputs = gather(cfg.indegree, prev)
            if not inputs:
                layer.append(None)
                continue
            lam = random_affine_coeffs(rng, spec, len(inputs))
            layer.append(combine(spec, (0,) * len(inputs[0]), lam, inputs))
        prev = layer
    return gather(cfg.sink_indegree, prev)


ORACLE_FIELDS = (field_new(2), field_new(3), field_new(2, 2), field_new(19))


@st.composite
def dag_cases(draw, fields=ORACLE_FIELDS):
    cfg = NetworkConfig(
        layers=draw(st.integers(1, 4)), width=draw(st.integers(1, 8)),
        indegree=draw(st.integers(1, 3)), sink_indegree=draw(st.integers(1, 4)),
        drop_prob=draw(st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 2),
                                        Fraction(2, 3), Fraction(1)])))
    K = draw(st.sampled_from(fields))
    d = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, K.order - 1)] * d)
    sources = draw(st.lists(point, min_size=1, max_size=4))
    return cfg, K, sources, draw(st.integers(0, 2 ** 64 - 1))


# Wide DAGs whose draws span several 64-lane peek passes, with the
# drop-free branches p = 0 and p = 1 and one with drop draws.
WIDE = dict(layers=4, width=8, indegree=3, sink_indegree=4)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dag_cases())
@example((NetworkConfig(**WIDE, drop_prob=Fraction(0)), F2,
          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 7))
@example((NetworkConfig(**WIDE, drop_prob=Fraction(1)), F2, [(0, 1), (1, 1)], 2 ** 64 - 1))
@example((NetworkConfig(**WIDE, drop_prob=Fraction(1, 3)), field_new(19),
          [(0, 0), (3, 1), (18, 7)], 0))
# p = 0 over odd q, whose picks are fixed slices of the stream: many layers
# and wide ones, lone and several nonzero coefficients
@example((NetworkConfig(layers=3, width=5, indegree=2, sink_indegree=4, drop_prob=Fraction(0)),
          field_new(3), [(0, 0, 0), (1, 2, 0), (2, 2, 1)], 11))
@example((NetworkConfig(layers=4, width=8, indegree=3, sink_indegree=5, drop_prob=Fraction(0)),
          field_new(3, 2), [(0, 1, 8), (4, 0, 2)], 2 ** 64 - 1))
@example((NetworkConfig(layers=3, width=6, indegree=1, sink_indegree=3, drop_prob=Fraction(0)),
          field_new(19), [(5, 0, 18), (0, 7, 1), (3, 3, 3)], 19))
@example((NetworkConfig(**WIDE, drop_prob=Fraction(0)), field_new(19),
          [(0, 0), (3, 1), (18, 7), (2, 9)], 4))
def test_propagate_matches_one_pass_oracle(case):
    cfg, K, sources, seed = case
    new, old = SplitMix64(seed), SplitMix64(seed)
    for _ in range(3):  # successive calls continue from the state left behind
        assert propagate(cfg, K, sources, new) == _propagate_one_pass(cfg, K, sources, old)
        assert new.state == old.state


@pytest.mark.parametrize("n", [0, 1, 2, 37, 1000])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
def test_skip_is_n_draws(n, seed):
    skipped, stepped = SplitMix64(seed), SplitMix64(seed)
    skipped.skip(n)
    for _ in range(n):
        stepped.below(7)
    assert skipped.state == stepped.state
    assert skipped.next_u64() == stepped.next_u64()


GAMMA = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 128, 129, 300])
@pytest.mark.parametrize("state", [0, 5, 2 ** 64 - 1, 2 ** 64 - GAMMA])
def test_peek_is_the_next_n_outputs(n, state):
    rng, twin = SplitMix64(state), SplitMix64(state)
    assert rng.peek(n) == list(_splitmix64_outputs(state, n))
    assert rng.state == state  # peek does not move the state
    drawn = [twin.below(2 ** 64) for _ in range(n)]
    assert rng.peek(n) == drawn
    rng.skip(n)
    assert rng.state == twin.state
    assert rng.next_u64() == twin.next_u64()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dag_cases(fields=(F2,)))
@example((NetworkConfig(**WIDE, drop_prob=Fraction(0)), F2,
          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 7))
@example((NetworkConfig(**WIDE, drop_prob=Fraction(1, 2)), F2,
          [(0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 0, 0)], 3))
def test_packed_propagate_matches_tuple_propagate(case):
    cfg, K, sources, seed = case
    packed, tuples = SplitMix64(seed), SplitMix64(seed)
    d = len(sources[0])
    for _ in range(3):
        out = propagate(cfg, K, [K.pack(v) for v in sources], packed)
        assert [K.unpack(x, d) for x in out] == propagate(cfg, K, sources, tuples)
        assert packed.state == tuples.state


def test_packed_propagate_needs_f2():
    with pytest.raises(ValueError):
        propagate(CFG, field_new(3), [0, 1], SplitMix64(0))


def test_propagate_guards_the_draws_it_peeks():
    # layers * width * (indegree * e + indegree - 1) + sink_indegree * e draws,
    # e = 1 at p = 0 and 2 at 0 < p < 1: a trial may peek 10^7 of them, not more
    class Peeked(Exception):
        pass

    class Stream(SplitMix64):
        def peek(self, n):
            raise Peeked(n)
    for width, sink, p in [(3333332, 4, Fraction(0)), (1999998, 5, Fraction(1, 2))]:
        with pytest.raises(Peeked) as exc:
            propagate(NetworkConfig(width=width, sink_indegree=sink, drop_prob=p),
                      F2, [0, 1], Stream(0))
        assert exc.value.args == (10 ** 7,)
        with pytest.raises(GuardExceeded, match="draws per trial exceed the guard"):
            propagate(NetworkConfig(width=width, sink_indegree=sink + 1, drop_prob=p),
                      F2, [0, 1], Stream(0))


# The tuple run_trials loop that the packed F_2 path replaced, kept as its
# oracle: tuple generators, propagate and aff_closure on tuples,
# block.contains and codes.decode on the closure.
def _run_trials_tuples(code, cfg, trials, seed, forced_deletions=None):
    K = code.geometry.field
    successes = ambiguities = erasures = 0
    rank_total = 0
    for i in range(trials):
        rng = trial_rng(seed, i)
        block = code.blocks[rng.below(len(code.blocks))]
        points = [block.rep] + [vec_add(K, block.rep, row) for row in block.dir.rows]
        if forced_deletions is not None:
            keep = list(range(1, len(points)))
            for _ in range(forced_deletions):
                keep.pop(rng.below(len(keep)))
            received_pts = [points[0]] + [points[j] for j in keep]
        else:
            received_pts = propagate(cfg, K, points, rng)
        if not received_pts:
            erasures += 1
            continue
        received = aff_closure(received_pts, K)
        assert block.contains(received)
        rank_total += received.rank
        try:
            decoded = decode(code, received)
        except Ambiguity:
            ambiguities += 1
            continue
        except Erasure:
            erasures += 1
            continue
        assert decoded == block
        successes += 1
    mean = Fraction(rank_total, trials) if trials else Fraction(0)
    return TrialStats(trials, successes, ambiguities, erasures, mean, seed)


F2_FAMILIES = {  # name: (family, trials per run)
    "S(2,3,7)": (affine_steiner(2, 3, 2), 120),
    "S(2,3,9)": (affine_steiner(2, 4, 2), 30),
    "complete AG(4,2) planes": (complete_design(affine_geometry(F2, 5), 3), 60),
    "complete AG(3,2) points": (complete_design(affine_geometry(F2, 4), 1), 40),
}
F2_DAGS = [NetworkConfig(layers=3, width=8, drop_prob=p)
           for p in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1))] + [
    NetworkConfig(**WIDE, drop_prob=Fraction(1, 3))]


@pytest.mark.parametrize("name", list(F2_FAMILIES))
@pytest.mark.parametrize("seed", [0, 9, 2 ** 64 - 1])
def test_packed_run_trials_matches_tuple_oracle(name, seed):
    code, trials = F2_FAMILIES[name]
    for cfg in F2_DAGS:
        assert run_trials(code, cfg, trials, seed) == \
            _run_trials_tuples(code, cfg, trials, seed), cfg
    for d in range(code.block_rank):
        assert run_trials(code, CFG, trials, seed, forced_deletions=d) == \
            _run_trials_tuples(code, CFG, trials, seed, forced_deletions=d), d


def test_tuple_oracle_sees_ambiguities_and_erasures():
    # the oracle comparison above is only as strong as the outcomes it covers
    code, trials = F2_FAMILIES["complete AG(4,2) planes"]
    stats = _run_trials_tuples(code, F2_DAGS[1], trials, 0)
    assert stats.ambiguities and stats.successes
    stats = _run_trials_tuples(code, F2_DAGS[2], trials, 0)
    assert stats.erasures


# Over F_2 a t=2 Steiner family's outcome is a function of the received
# rank, and the block draw reads one stream output whatever b is, so seeded
# reports agree between S(2,3,7) and S(2,3,9).
@pytest.mark.parametrize("seed", [0, 4, 31])
def test_seeded_reports_do_not_depend_on_the_steiner_family(seed):
    s7, s9 = F2_FAMILIES["S(2,3,7)"][0], F2_FAMILIES["S(2,3,9)"][0]
    for cfg in F2_DAGS[1:3] + [CFG]:
        assert run_trials(s7, cfg, 200, seed) == run_trials(s9, cfg, 200, seed)
    for d in range(3):
        assert run_trials(s7, CFG, 200, seed, forced_deletions=d) == \
            run_trials(s9, CFG, 200, seed, forced_deletions=d)


def test_steiner_reports_pinned():
    cfg = NetworkConfig(layers=3, width=8, drop_prob=Fraction(1, 10))
    for code in (F2_FAMILIES["S(2,3,7)"][0], F2_FAMILIES["S(2,3,9)"][0]):
        assert _report(run_trials(code, cfg, 500, seed=0)) == (315, 185, 0, Fraction(853, 500))
        assert _report(run_trials(code, CFG, 300, seed=4, forced_deletions=2)) == \
            (0, 300, 0, Fraction(1))
