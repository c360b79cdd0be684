"""Monte-Carlo harness for random affine network coding with deletions.

Inner nodes forward affine combinations of their surviving inputs
(coefficients summing to 1), so every vector reaching the sink stays
inside the sent block's coset; the receiver closes the sink vectors
into a flat and decodes by containment.

Randomness comes from SplitMix64, seeded per trial from (seed, trial
index), so trials are independent substreams and aggregate stats do not
depend on execution order.

propagate draws coefficients and combines only for nodes whose vectors
reach the sink, and consumes the same stream as one pass (see its docstring).
"""

from __future__ import annotations

from fractions import Fraction

from . import codes
from .design import FlatFamily
from .flatspace import aff_closure, combine, vec_add
from .galois import Record

RNG_ID = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 PRNG; tiny, seedable, and reproducible across languages."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        return self.below(_MASK + 1)

    def below(self, n: int) -> int:
        """next_u64() % n for n >= 1; the one copy of the SplitMix64 step."""
        self.state = z = (self.state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) % n

    def skip(self, n: int) -> None:
        """Advance past n steps without running the mix: n calls to below."""
        self.state = (self.state + n * _GAMMA) & _MASK

    def chance(self, prob: Fraction) -> bool:
        return self.bernoulli(prob)()

    def bernoulli(self, prob: Fraction):
        """Bernoulli draws with rational probability prob = a/n, as a function.

        below(n) is u64 % n, which is not exactly uniform: the chance of
        True differs from a/n by at most n/2^64.  The seeded stream keeps
        that rather than switch to rejection sampling.
        """
        a, n, below = prob.numerator, prob.denominator, self.below  # n > 0
        return (lambda: below(n) < a) if 0 < a < n else (lambda: a > 0)


def trial_rng(seed: int, index: int) -> SplitMix64:
    """Independent substream for one trial."""
    mixer = SplitMix64((seed & _MASK) ^ ((index + 1) * _GAMMA) & _MASK)
    return SplitMix64(mixer.next_u64())


class NetworkConfig(Record):
    __slots__ = ("layers", "width", "indegree", "drop_prob", "sink_indegree")
    _defaults = {"layers": 1, "width": 4, "indegree": 2,
                 "drop_prob": Fraction(0), "sink_indegree": 4}

    def __post_init__(self):
        if self.layers < 1 or self.width < 1 or self.indegree < 1:
            raise ValueError("layers, width and indegree must all be >= 1")
        if self.sink_indegree < 1:
            raise ValueError("sink_indegree must be >= 1")
        p = Fraction(self.drop_prob)
        if not 0 <= p <= 1:
            raise ValueError("drop_prob must be in [0, 1]")
        object.__setattr__(self, "drop_prob", p)


class TrialStats(Record):
    __slots__ = ("trials", "successes", "ambiguities", "erasures",
                 "mean_received_rank", "seed")

    def render(self) -> str:
        """Flat key=value text block, exact numbers only."""
        lines = [
            f"trials={self.trials}",
            f"successes={self.successes}",
            f"ambiguities={self.ambiguities}",
            f"erasures={self.erasures}",
            f"mean_received_rank={self.mean_received_rank.numerator}"
            f"/{self.mean_received_rank.denominator}",
            f"seed={self.seed}",
            f"rng-id={RNG_ID}",
        ]
        return "\n".join(lines) + "\n"


def random_affine_coeffs(rng: SplitMix64, K, s: int):
    """s coefficients summing to 1: first s-1 uniform, last forced."""
    if s < 1:
        raise ValueError("need at least one coefficient")
    below, q, add = rng.below, K.order, K._add
    coeffs, total = [], 0
    for _ in range(s - 1):
        coeffs.append(c := below(q))
        total = add[total][c]
    coeffs.append(add[1][K._neg[total]])
    return coeffs


def propagate(cfg: NetworkConfig, spec, sources, rng: SplitMix64):
    """Push vectors through the layered DAG; returns the sink vectors.

    Each node samples cfg.indegree edges from the previous layer; an
    edge delivers nothing with probability drop_prob or when its tail
    node holds nothing.  A node with no surviving inputs emits nothing.

    Pass 1 makes the picks and drops in stream order, notes each node's
    inputs and the state its coefficient draws start at, and skips them
    in O(1): coefficients decide no later draw, so rng ends where one
    pass leaves it.  Pass 2 draws coefficients from the noted states and
    combines, only in the ancestor cone of the sink's picks; a node whose
    coefficients have one nonzero forwards that input.
    """
    if not sources:
        raise ValueError("propagate needs at least one source vector")
    below, drop = rng.below, rng.bernoulli(cfg.drop_prob)

    def gather(n_edges, live):
        got, m = [], len(live)
        for _ in range(n_edges):
            j = below(m)
            if live[j] and not drop():
                got.append(j)
        return got

    live, layers = [True] * len(sources), []
    for _ in range(cfg.layers):
        ins, starts = [], []
        for _node in range(cfg.width):
            ins.append(inputs := gather(cfg.indegree, live))
            starts.append(rng.state)
            if len(inputs) > 1:
                rng.skip(len(inputs) - 1)
        layers.append((ins, starts))
        live = ins  # a node is live iff its input list is non-empty
    sink = gather(cfg.sink_indegree, live)

    cones = [set(sink)]
    for ins, _ in reversed(layers[1:]):
        cones.append({j for i in cones[-1] for j in ins[i]})
    vals, coeff_rng, zero = sources, SplitMix64(0), (0,) * len(sources[0])
    for (ins, starts), cone in zip(layers, reversed(cones)):
        vals_next, get = {}, vals.__getitem__
        for i in cone:
            coeff_rng.state = starts[i]
            lam = random_affine_coeffs(coeff_rng, spec, len(ins[i]))
            if lam.count(0) == len(lam) - 1:  # the sum is 1, so the lone nonzero is 1
                vals_next[i] = get(ins[i][lam.index(1)])
            else:
                vals_next[i] = combine(spec, zero, lam, map(get, ins[i]))
        vals = vals_next
    return [vals[j] for j in sink]


def _block_generators(block):
    """k affinely independent points: rep and rep + each basis row."""
    pts = [block.rep]
    for row in block.dir.rows:
        pts.append(vec_add(block.spec, block.rep, row))
    return pts


def run_trials(code: FlatFamily, cfg: NetworkConfig, trials: int, seed: int,
               forced_deletions: int | None = None) -> TrialStats:
    """Monte-Carlo decode statistics; deterministic given the seed.

    forced_deletions switches from the random DAG to the exact deletion
    model: exactly that many direction vectors, chosen at random, are
    withheld from the receiver.
    """
    if not code.blocks:
        raise ValueError("empty code")
    g = code.geometry
    if g.kind != "affine":
        raise ValueError("the simulator models affine network coding")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    k = code.block_rank
    if forced_deletions is not None and not 0 <= forced_deletions <= k - 1:
        raise ValueError(f"forced deletions must be in [0, {k - 1}] for "
                         f"rank-{k} blocks, got {forced_deletions}")
    K = g.field
    successes = ambiguities = erasures = 0
    rank_total = 0
    for i in range(trials):
        rng = trial_rng(seed, i)
        block = code.blocks[rng.below(len(code.blocks))]
        points = _block_generators(block)
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
        if not block.contains(received):
            raise AssertionError("closure invariant violated: received not in block")
        rank_total += received.rank
        try:
            decoded = codes.decode(code, received)
        except codes.Ambiguity:
            ambiguities += 1
            continue
        except codes.Erasure:
            erasures += 1
            continue
        if decoded != block:
            raise AssertionError("decoder returned a wrong block")
        successes += 1
    mean = Fraction(rank_total, trials) if trials else Fraction(0)
    return TrialStats(trials, successes, ambiguities, erasures, mean, seed)
