"""Monte-Carlo harness for random affine network coding with deletions.

Inner nodes forward affine combinations of their surviving inputs
(coefficients summing to 1), so every vector reaching the sink stays
inside the sent block's coset; the receiver closes the sink vectors
into a flat and decodes by containment.

Randomness comes from SplitMix64, seeded per trial from (seed, trial
index), so trials are independent substreams and aggregate stats do not
depend on execution order.

propagate reads a trial's stream from one lane-parallel SplitMix64.peek
and combines only for nodes whose vectors reach the sink (see its docstring).
Over F_2 a trial's vectors are FieldSpec.pack ints, added by ^ (see
run_trials); tuples of encodings serve q > 2.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import codes
from .design import FlatFamily
from .flatspace import aff_closure, check_guard, vec_add
from .galois import Record

RNG_ID = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# peek's lanes: output i in bits [128i, 128i + 64) of one int, spill in the 64 above
_LANES = 64
_ONES = sum(1 << 128 * i for i in range(_LANES))
_LM = _ONES * _MASK
_GIDX = sum(((i + 1) * _GAMMA & _MASK) << 128 * i for i in range(_LANES))
_STEP = 2 if sys.byteorder == "little" else -2  # big-endian words run high to low


def _mix(z: int, mask: int) -> int:
    """The SplitMix64 output function; on each lane of z if mask is a lane mask."""
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return z ^ z >> 31


class SplitMix64:
    """SplitMix64 PRNG; tiny, seedable, and reproducible across languages."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        return self.below(_MASK + 1)

    def below(self, n: int) -> int:
        """next_u64() % n for n >= 1; one step of the stream."""
        self.state = z = (self.state + _GAMMA) & _MASK
        return _mix(z, _MASK) % n

    def skip(self, n: int) -> None:
        """Advance past n steps without running the mix: n calls to below."""
        self.state = (self.state + n * _GAMMA) & _MASK

    def peek(self, n: int) -> list:
        """The next n outputs of next_u64, state unmoved: output i is the mix
        of state + (i + 1) * _GAMMA, so up to _LANES are mixed in one pass (a
        short one masks the constants), read as every other native 64-bit word."""
        out, s = [], self.state
        for done in range(0, n, _LANES):
            lanes, ones, gidx, lm = min(n - done, _LANES), _ONES, _GIDX, _LM
            if lanes < _LANES:
                top = (1 << 128 * lanes) - 1
                ones, gidx, lm = ones & top, gidx & top, lm & top
            z = _mix((s * ones + gidx) & lm, lm)
            out += memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[::_STEP]
            s = (s + _LANES * _GAMMA) & _MASK
        return out


def trial_rng(seed: int, index: int) -> SplitMix64:
    """A trial's stream, seeded by the first output of SplitMix64(seed ^ (index + 1) * _GAMMA)."""
    return SplitMix64(_mix(((seed ^ (index + 1) * _GAMMA) + _GAMMA) & _MASK, _MASK))


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


def propagate(cfg: NetworkConfig, spec, sources, rng: SplitMix64):
    """Push vectors through the layered DAG; returns the sink vectors.

    Each node samples cfg.indegree edges from the previous layer; an
    edge delivers nothing with probability drop_prob or when its tail
    node holds nothing.  A node with no surviving inputs emits nothing.

    One rng.peek mixes, lane-parallel, every output the trial can read:
    O(layers * width * indegree) ints, the order of pass 1's input lists;
    GuardExceeded is raised first if they are more than ENUMERATION_GUARD.
    Pass 1 reads picks and drops in stream order, noting and stepping
    past each node's coefficient offsets (no later draw depends on them),
    so rng ends as after one pass of below calls; at p = 0 those are fixed
    slices of the stream, one comprehension per stage.  Pass 2 combines only
    in the sink's ancestor cone, over q > 2 by _mul and _add rows, the last
    coefficient being 1 minus the running total; a lone nonzero coefficient
    is 1 and forwards its input.  Over F_2 the sources may be FieldSpec.pack
    ints: pass 2 then XORs the inputs whose coefficient is 1, and the sink
    vectors come back packed.
    """
    if not sources:
        raise ValueError("propagate needs at least one source vector")
    packed = type(sources[0]) is int
    if packed and spec.order != 2:
        raise ValueError("packed vectors combine by ^ only over F_2")
    a, n, d = cfg.drop_prob.numerator, cfg.drop_prob.denominator, cfg.indegree
    e = 2 if 0 < a < n else 1  # outputs per live edge: its pick, then its drop
    check_guard(draws := cfg.layers * cfg.width * (d * e + d - 1) + cfg.sink_indegree * e,
                "draws per trial")
    z = rng.peek(draws)
    k, live, layers = 0, [True] * len(sources), []
    for width, deg in [(cfg.width, d)] * cfg.layers + [(1, cfg.sink_indegree)]:
        m = len(live)
        if not a:  # p = 0: every node is live, with deg picks, then deg - 1 coefficients
            step = 2 * deg - 1
            starts = range(k + deg, k + width * step + deg, step)
            ins = [[j % m for j in z[at - deg:at]] for at in starts]
            k += width * step
        else:
            ins, starts = [], []
            for _node in range(width):
                got = []
                for _ in range(deg):
                    j, k = z[k] % m, k + 1
                    if live[j] and e == 2:  # p = 1 keeps no edge
                        k += 1
                        if z[k - 1] % n >= a:
                            got.append(j)
                ins.append(got)
                starts.append(k)
                if got:
                    k += len(got) - 1
        layers.append((ins, starts))
        live = ins  # a node is live iff its input list is non-empty
    (sink,), (end,) = layers.pop()  # the sink draws no coefficients
    rng.skip(end)

    cones = [set(sink)]
    for ins, _ in reversed(layers[1:]):
        cones.append({j for i in cones[-1] for j in ins[i]})
    vals, q, add, mul, neg = sources, spec.order, spec._add, spec._mul, spec._neg
    for (ins, starts), cone in zip(layers, reversed(cones)):
        vals_next, get = {}, vals.__getitem__
        for i in cone:
            got, at = ins[i], starts[i]
            if packed:  # coefficient c % 2; the last one makes the count of 1s odd
                v, odd = 0, False
                for c, j in zip(z[at:at + len(got) - 1], got):
                    if c & 1:
                        v, odd = v ^ get(j), not odd
                vals_next[i] = v if odd else v ^ get(got[-1])
                continue
            v, total, last = None, 0, len(got) - 1
            for t, j in enumerate(got):  # the last coefficient makes the sum 1
                if c := z[at + t] % q if t < last else add[1][neg[total]]:
                    total, mc, x = add[total][c], mul[c], get(j)
                    if v is None:  # a lone nonzero coefficient is 1: its input goes on as is
                        v = x if c == 1 else tuple(map(mc.__getitem__, x))
                    else:
                        v = tuple([add[b][mc[y]] for b, y in zip(v, x)])
            vals_next[i] = v
        vals = vals_next
    return [vals[j] for j in sink]


def run_trials(code: FlatFamily, cfg: NetworkConfig, trials: int, seed: int,
               forced_deletions: int | None = None) -> TrialStats:
    """Monte-Carlo decode statistics; deterministic given the seed.

    forced_deletions switches from the random DAG to the exact deletion
    model: exactly that many direction vectors, chosen at random, are
    withheld from the receiver.

    The sent block is read from code's columns (reps, and dirs through
    dir_of).  Over F_2 a trial's vectors are FieldSpec.pack ints: rep and
    rep ^ each dir row (packed once per entry of code.dirs), combined by ^
    and closed by an XOR basis into a PackedFlat, which decode takes
    packed.  Tuples serve q > 2.  Both paths give the same statistics from
    the same stream.  The received flat lies in the sent block j, so decode
    must return that block or raise an Ambiguity whose indices hold j (its
    candidates are not read); else run_trials raises.
    """
    if not len(code):
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
    K, dirs, dir_of, reps = g.field, code.dirs, code.dir_of, code.reps
    d = g.ambient_dim if K.order == 2 else None  # over F_2, packed vectors of length d
    pack = K.pack  # a D of None is the empty flat's direction
    packed_rows = [] if d is None else [D and list(map(pack, D.rows)) for D in dirs]
    successes = ambiguities = erasures = 0
    rank_total = 0
    for i in range(trials):
        rng = trial_rng(seed, i)
        rep, D = reps[j := rng.below(len(reps))], dirs[dir_of[j]]  # the sent block
        if d is not None:
            x = pack(rep)
            points = [x] + [x ^ r for r in packed_rows[dir_of[j]]]
        else:  # k affinely independent points: rep and rep + each basis row
            points = [rep] + [vec_add(K, rep, r) for r in D.rows]
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
        received = aff_closure(received_pts, K, d)
        rank_total += received.rank
        try:  # decode lists every block holding received: the sent one must be among them
            decoded = codes.decode(code, received)
        except codes.Ambiguity as amb:
            if j not in amb.indices:
                raise AssertionError("closure invariant violated: received not in block") from None
            ambiguities += 1
            continue
        except codes.Erasure:
            raise AssertionError("closure invariant violated: received not in block") from None
        if (decoded.rep, decoded.dir) != (rep, D):
            raise AssertionError("decoder returned a wrong block")
        successes += 1
    mean = Fraction(rank_total, trials) if trials else Fraction(0)
    return TrialStats(trials, successes, ambiguities, erasures, mean, seed)
