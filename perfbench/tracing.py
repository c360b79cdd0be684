"""Spans and counts recorded around calls into each affgeo layer.

The spans are taken from outside the library: `install` replaces public
functions in the affgeo modules with wrappers that time each call, so
the CLI code runs unchanged.  A span is (name, start_ns, end_ns,
parent, run_id); spans stay in memory and are written out once, when
the traced command ends.

Two passes exist so that per-call wrappers do not slow the layer totals:

- `layers` wraps the top-level calls the CLI makes into each layer
  (field build, construction, render/parse, verify, meet rank,
  run_trials);
- `decompose` wraps the calls that run inside them (subflats, from_rows,
  aff_closure, propagate, decode), on the same seeded inputs.

Run one traced command in a fresh interpreter, as the CLI would be:

    python3 perfbench/tracing.py <layers|decompose> <run_id> <out.json> -- <affgeo argv>
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent_index]
        self.counts = {}
        self._stack = []

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; the span closes on exceptions too."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def to_json(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p,
                           "run_id": self.run_id} for n, s, e, p in self.spans],
                "counts": self.counts}


def _wrap(tr: Tracer, owner, attr: str, name: str, after=None):
    """Replace owner.attr with a traced wrapper; `after(result, args)` counts work."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tr.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result, args)
        return result

    setattr(owner, attr, traced)


def _wrap_method(tr: Tracer, cls, attr: str, name: str, after=None):
    fn = getattr(cls, attr)

    def traced(self, *args, **kwargs):
        tr.call(name, fn, self, *args, **kwargs)
        if after is not None:
            after(self, args)

    setattr(cls, attr, traced)


def install(tr: Tracer, pass_name: str):
    """Wrap the public entry points of each layer for one pass."""
    from affgeo import (blockfile, codes, construct, design, flatspace, galois,
                        netsim)

    if pass_name == "layers":
        _wrap_method(tr, galois.FieldSpec, "__init__", "galois.field_build",
                     lambda K, _a: tr.count("galois.table_cells", K.order ** 2))
        _wrap_method(tr, galois.Embedding, "__init__", "galois.embed")
        # the entry points the CLI calls; affine_steiner builds its spread
        # inside, so wrapping desarguesian_spread too would count it twice
        for fn in ("affine_steiner", "affine_poly_code"):
            _wrap(tr, construct, fn, "construct.family",
                  lambda fam, _a: tr.count("construct.blocks_n", len(fam)))
        _wrap(tr, blockfile, "render", "blockfile.render",
              lambda text, _a: tr.count("blockfile.bytes", len(text.encode())))
        _wrap(tr, blockfile, "parse", "blockfile.parse",
              lambda _f, a: tr.count("blockfile.bytes", len(a[0].encode())))
        _wrap(tr, design, "verify_design", "design.verify")
        _wrap(tr, codes, "max_pairwise_meet_rank", "codes.meet_rank",
              lambda _r, a: tr.count("codes.meet_pairs_n",
                                     len(a[0].blocks) * (len(a[0].blocks) - 1) // 2))
        _wrap(tr, netsim, "run_trials", "netsim.run_trials",
              lambda st, _a: tr.count("netsim.trials", st.trials))
    elif pass_name == "decompose":
        _wrap(tr, design, "verify_design", "design.verify")
        _wrap(tr, design, "subflats", "design.subflats",
              lambda out, _a: tr.count("design.subflats_n", len(out)))
        orig_from_rows = flatspace.LinearSubspace.from_rows
        flatspace.LinearSubspace.from_rows = classmethod(
            lambda cls, *a: tr.call("flatspace.from_rows", orig_from_rows, *a))
        _wrap(tr, netsim, "aff_closure", "flatspace.aff_closure")
        _wrap(tr, netsim, "propagate", "netsim.propagate")
        _wrap(tr, codes, "decode", "codes.decode",
              lambda _b, _a: tr.count("codes.decode_ok"))
    else:
        raise ValueError(f"unknown pass {pass_name!r}")


def self_ns(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


def main(argv) -> int:
    pass_name, run_id, out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py <pass> <run_id> <out.json> -- <argv>")
    tr = Tracer(run_id)
    install(tr, pass_name)
    from affgeo import cli
    try:
        code = tr.call("cli.main", cli.main, cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tr.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
