"""End-to-end and per-layer benchmark of the affgeo CLI.

    python3 perfbench/run.py --workload steiner9 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --compare A B             # verdicts, A = parent
    python3 perfbench/run.py --write-manifest          # regenerate BENCHMARK.json

Untraced runs (--trace 0) are a closed loop with one client: each
workload's pipeline of `python -m affgeo.cli` commands runs one fresh
subprocess at a time, each started after the previous one exits, and is
repeated until the pipeline boundary nearest to --seconds.  Every
command's exit code, report and written block file is checked.  Per-run
values are medians over the pipelines of the run.

Times are paced: between any two subprocesses the benchmark times two
fixed pure-Python loops (`pace`), and each command's wall time is
divided by the median pace around it.  The shared host's speed drifts
by up to 1.8x over seconds to minutes, and it slows the loops and the
CLI alike, so paced times read as seconds on the host at its reference
pace.  The raw wall times are kept in the saved record.  A run from the
command line pins itself, and so every subprocess, to one CPU, so that
the pace and the commands are timed on the same CPU.  The commands are
spawned by launcher.py, which reports each one's peak RSS.

The traced run (--trace 1) runs one pipeline three times per command:
untraced, then through perfbench/tracing.py in its `layers` and
`decompose` passes, and derives the per-layer metrics from the spans.

The program is run from the checkout's own `src/` tree; nothing is
installed.  The last line of stdout is one JSON result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
SETUP_PER_ITERATION = 2
# pace(): the times of its two loops on a 2-vCPU Xeon KVM guest with
# Python 3.11 in the host's fast phases (the 5th percentile of 5000)
PACE_LOOPS = 200_000
PACE_REF_S = (0.027, 0.043)
# a command is paced by the paces from PACE_WINDOW of its own lengths
# (plus PACE_MARGIN_S) before its start to as many after its end
PACE_WINDOW = 2
PACE_MARGIN_S = 0.1
STEP_METRICS = ("construct_s", "verify_s", "analyze_s", "simulate_s")


class BenchError(Exception):
    pass


# --- environment ----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AFFGEO_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


CPUS = frozenset(os.sched_getaffinity(0))  # before pin_to_one_cpu()


def pin_to_one_cpu():
    """Run this process and every child on the last CPU it may use.

    The host slows its CPUs at different times, so pace() only tells how
    fast a command runs when both run on the same CPU.
    """
    os.sched_setaffinity(0, {max(CPUS)})


def check_tree():
    if not (ROOT / "src" / "affgeo" / "cli.py").is_file():
        raise BenchError(f"no affgeo sources under {ROOT / 'src'}")


def environment(seed: int, workload: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "affgeo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(CPUS),
            "pinned_cpu": max(CPUS) if CPUS != os.sched_getaffinity(0) else None,
            "platform": platform.platform(),
            "commit": commit,
            "src_sha256": digest.hexdigest(),
            "seed": seed,
            "workload": workload,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# --- running and checking one command ---------------------------------------------

def step_argv(step, seed: int) -> list:
    argv = list(step.argv)
    if argv[0] == "simulate":
        argv += ["--seed", str(seed)]
    return argv


def run(cmd: list, cwd: Path) -> tuple:
    """(wall seconds, CompletedProcess) of one subprocess, run to completion."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                          text=True)
    return time.perf_counter() - t0, proc


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "affgeo.cli", *argv]


def _parse_report(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_step(wl, index: int, seed: int, proc, cwd: Path) -> list:
    """Every way the command's exit code, report or block file is wrong."""
    step = wl.steps[index]
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return errors
    if step.stdout is not None and proc.stdout != step.stdout:
        errors.append(f"report {proc.stdout!r}, expected {step.stdout!r}")
    if step.digest is not None:
        path = cwd / step.argv[-1]
        got = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        if got != step.digest:
            errors.append(f"{step.argv[-1]} sha256 {got}, expected {step.digest}")
    if step.sim_check is not None:
        rep = _parse_report(proc.stdout)
        trials = int(step.argv[step.argv.index("--trials") + 1])
        try:
            counts = [int(rep[k]) for k in ("trials", "successes", "ambiguities",
                                             "erasures")]
        except (KeyError, ValueError):
            return errors + [f"malformed simulate report {proc.stdout!r}"]
        if counts[0] != trials or sum(counts[1:]) != trials:
            errors.append(f"trial counts {counts} do not add up to {trials}")
        if step.sim_check == "all_decode" and counts[1] != trials:
            errors.append(f"successes={counts[1]}, expected {trials}")
        if rep.get("seed") != str(seed) or rep.get("rng-id") != "splitmix64":
            errors.append(f"seed/rng-id {rep.get('seed')}/{rep.get('rng-id')}")
        golden = step.seed0_stdout
        if seed == 0 and golden is not None and proc.stdout != golden:
            errors.append(f"report {proc.stdout!r}, expected {golden!r}")
    return errors


class Checker:
    """Counts commands and failures; also checks simulate determinism."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.first_report = {}
        self.errors = []

    def check(self, index: int, proc, cwd: Path, label: str):
        errs = check_step(self.wl, index, self.seed, proc, cwd)
        if self.wl.steps[index].sim_check and proc.returncode == 0:
            prev = self.first_report.setdefault(self.wl.steps[index].argv, proc.stdout)
            if prev != proc.stdout:
                errs.append("simulate report differs between runs of one seed")
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors += [f"{label} step {index} {' '.join(self.wl.steps[index].argv)}: {e}"
                            for e in errs]


# --- statistics ---------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def tail_rule(values) -> str:
    """The highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return f"n={n} (no tail percentile: needs n>=20)"
    return f"p{pct}={percentile(values, pct):.6g} n={n}"


def quartiles(values):
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- untraced end-to-end run ----------------------------------------------------------

_PACE_TABLE = []


def pace() -> float:
    """How slow the host runs right now: 1.0 at its reference pace.

    Times two fixed pure-Python loops, one that stays in the L1 cache and
    one that reads a 4 MB list at scattered places, and averages each
    one's time over its reference time.
    """
    if not _PACE_TABLE:
        _PACE_TABLE.extend(range(1 << 19))
    big, mask = _PACE_TABLE, (1 << 19) - 1
    t0 = time.perf_counter()
    acc = 0
    table = list(range(64))
    seen = {}
    for i in range(PACE_LOOPS):
        acc ^= table[i & 63] * i
        seen[i & 255] = acc & 0xFFFF
    t1 = time.perf_counter()
    j = 1
    for i in range(PACE_LOOPS // 2):
        j = (j * 40503 + i) & mask
        acc += big[j]
    t2 = time.perf_counter()
    return ((t1 - t0) / PACE_REF_S[0] + (t2 - t1) / PACE_REF_S[1]) / 2


class PacedRunner:
    """Runs subprocesses one at a time and times the host's pace between them.

    The commands run through launcher.py, which reports each one's peak
    RSS.  `paces` holds (time, pace) of every pace() taken; `commands`
    holds (label, start, end, max-RSS KiB) of every subprocess, with
    times in perf_counter seconds.  Use it as a context manager, so the
    launcher always ends.
    """

    def __init__(self, work: Path):
        self.work = work
        self.paces = []
        self.commands = []
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=work, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._pace()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def _pace(self):
        t = time.perf_counter()
        self.paces.append((t, pace()))

    def run(self, label, cmd: list) -> subprocess.CompletedProcess:
        out, err = self.work / "_stdout", self.work / "_stderr"
        start = time.perf_counter()
        self.launcher.stdin.write("\t".join([str(out), str(err), *cmd]) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        end = time.perf_counter()
        if not reply:
            raise BenchError("the launcher ended early")
        code, maxrss_kib = map(int, reply.split())
        self.commands.append((label, start, end, maxrss_kib))
        proc = subprocess.CompletedProcess(cmd, code, out.read_text(), err.read_text())
        self._pace()
        return proc

    def paced_walls(self) -> list:
        """(label, wall, paced wall) of every command.

        A command's paced wall is its wall over the median pace taken
        from PACE_WINDOW command lengths before its start to as many
        after its end.  That always holds the paces just before and
        just after it; a long command's window holds more of them, which
        track the host's slower drifts.
        """
        out = []
        for label, start, end, _ in self.commands:
            wall = end - start
            reach = PACE_WINDOW * wall + PACE_MARGIN_S
            near = [p for t, p in self.paces if start - reach <= t <= end + reach]
            out.append((label, wall, wall / statistics.median(near)))
        return out


def measure_setup(runner: PacedRunner, samples: int, label="setup"):
    """Fresh interpreters that only import affgeo.cli."""
    cmd = [sys.executable, "-c", "import affgeo.cli"]
    for _ in range(samples):
        proc = runner.run(label, cmd)
        if proc.returncode != 0:
            raise BenchError(f"import affgeo.cli failed: {proc.stderr.strip()}")


def run_pipeline(wl, seed: int, runner: PacedRunner, checker: Checker, it: int):
    """One pass over the workload's commands."""
    procs = [runner.run((it, step.metric), cli_cmd(step_argv(step, seed)))
             for step in wl.steps]
    for i, proc in enumerate(procs):
        checker.check(i, proc, runner.work, f"iteration {it}")


def e2e_run(wl, seed: int, seconds: float, work: Path) -> dict:
    checker = Checker(wl, seed)
    with PacedRunner(work) as runner:
        measure_setup(runner, 1, label="warm-up")  # byte-compiles the sources
        measure_setup(runner, SETUP_SAMPLES)
        iters = 0
        t0 = time.perf_counter()
        while True:
            # spread set-up samples over the run so one slow moment cannot set them all
            measure_setup(runner, SETUP_PER_ITERATION)
            run_pipeline(wl, seed, runner, checker, iters)
            iters += 1
            # end at the pipeline boundary nearest to --seconds
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / iters / 2 > seconds:
                break
    ran = {s.metric for s in wl.steps}
    names = [m for m in ("wall_s", *STEP_METRICS) if m == "wall_s" or m in ran]
    raw = {m: [0.0] * iters for m in names}
    paced = {m: [0.0] * iters for m in names}
    raw["setup_s"], paced["setup_s"] = [], []
    for label, wall, pwall in runner.paced_walls():
        if label == "setup":
            raw["setup_s"].append(wall)
            paced["setup_s"].append(pwall)
        elif label != "warm-up":
            it, metric = label
            for m in ("wall_s", metric):
                raw[m][it] += wall
                paced[m][it] += pwall
    values = {m: statistics.median(v) for m, v in paced.items()}
    values["peak_rss_mb"] = max(c[3] for c in runner.commands) / 1024
    values["error_rate"] = checker.failed / checker.attempted
    return {"kind": "e2e", "env": environment(seed, wl.name), "seconds": seconds,
            "iterations": iters, "attempted": checker.attempted,
            "failed": checker.failed, "errors": checker.errors,
            "samples": paced, "raw_samples": raw, "paces": runner.paces,
            "commands": runner.commands, "metrics": values}


def print_env(env: dict):
    print(f"env python={env['python']} nproc={env['nproc']} "
          f"pinned_cpu={env.get('pinned_cpu')} "
          f"platform={env['platform']} commit={env['commit']} "
          f"src_sha256={env['src_sha256'][:16]} seed={env['seed']}")


def print_e2e(rec: dict):
    env = rec["env"]
    print(f"workload={env['workload']} seed={env['seed']} seconds={rec['seconds']} "
          f"iterations={rec['iterations']} load=closed-loop, 1 client, "
          f"one subprocess at a time")
    print_env(env)
    for m in END_TO_END:
        if m.name not in rec["metrics"]:
            print(f"  {m.name:<12} {m.unit:<6} not run by this workload")
            continue
        val = rec["metrics"][m.name]
        extra = ""
        if m.name in rec["samples"]:
            raw = statistics.median(rec["raw_samples"][m.name])
            extra = f"median of {tail_rule(rec['samples'][m.name])}; raw {raw:.6g}"
        elif m.name == "error_rate":
            extra = f"{rec['failed']}/{rec['attempted']} commands"
        print(f"  {m.name:<12} {m.unit:<6} {val:.6g}  {extra}")
    for err in rec["errors"]:
        print(f"  ERROR {err}")


# --- traced run --------------------------------------------------------------------------

def traced_cmd(pass_name: str, run_id: str, out: Path, argv: list) -> list:
    return [sys.executable, str(HERE / "tracing.py"), pass_name, run_id, str(out),
            "--", *argv]


def trace_run(wl, seed: int, work: Path) -> dict:
    from tracing import self_ns
    checker = Checker(wl, seed)
    steps = []
    for i, step in enumerate(wl.steps):
        argv = step_argv(step, seed)
        wall, proc = run(cli_cmd(argv), work)
        checker.check(i, proc, work, "untraced")
        rec = {"argv": argv, "metric": step.metric, "untraced_wall_s": wall}
        for pass_name in ("layers", "decompose"):
            run_id = f"{wl.name}-{seed}-{i}-{pass_name}"
            out = work / f"{run_id}.json"
            pwall, pproc = run(traced_cmd(pass_name, run_id, out, argv), work)
            checker.check(i, pproc, work, pass_name)
            data = json.loads(out.read_text()) if out.exists() else {"spans": [], "counts": {}}
            rec[pass_name] = {"wall_s": pwall, **data}
        steps.append(rec)

    def spans(pass_name, name):
        return [s for st in steps for s in st[pass_name]["spans"] if s["name"] == name]

    def total_ms(pass_name, name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans(pass_name, name)) / 1e6

    def count(pass_name, name):
        return sum(st[pass_name]["counts"].get(name, 0) for st in steps)

    def latency(key, name):
        us = [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans("decompose", name)]
        return {f"{key}_p50_us": percentile(us, 50), f"{key}_p99_us": percentile(us, 99),
                f"{key}_n": len(us)}

    tally_self_ms = 0.0
    for st in steps:
        for pass_name in ("layers", "decompose"):
            sp = st[pass_name]["spans"]
            by_name = {}
            for s, own in zip(sp, self_ns(sp)):
                by_name[s["name"]] = by_name.get(s["name"], 0) + own / 1e6
            st[pass_name]["self_ms"] = by_name
        tally_self_ms += st["decompose"]["self_ms"].get("design.verify", 0.0)
        library_ns = sum(s["end_ns"] - s["start_ns"] for s in st["layers"]["spans"]
                         if s["parent"] == 0)
        # same process as the spans, so machine noise between runs cancels
        st["cli_self_ms"] = st["layers"]["wall_s"] * 1e3 - library_ns / 1e6
    self_ms_by_layer = {}
    for st in steps:
        for name, ms in st["layers"]["self_ms"].items():
            layer = name.split(".")[0]
            self_ms_by_layer[layer] = self_ms_by_layer.get(layer, 0.0) + ms

    m = {"galois.field_build_ms": total_ms("layers", "galois.field_build"),
         "galois.table_cells": count("layers", "galois.table_cells"),
         "galois.embed_ms": total_ms("layers", "galois.embed")}
    m.update({f"flatspace.{k}": v for k, v in latency("from_rows", "flatspace.from_rows").items()})
    m.update({f"flatspace.{k}": v
              for k, v in latency("aff_closure", "flatspace.aff_closure").items()})
    m.update({
        "design.verify_ms": total_ms("layers", "design.verify"),
        "design.subflats_ms": total_ms("decompose", "design.subflats"),
        "design.subflats_n": count("decompose", "design.subflats_n"),
        "design.tally_self_ms": tally_self_ms,
        "construct.family_ms": total_ms("layers", "construct.family"),
        "construct.blocks_n": count("layers", "construct.blocks_n"),
        "codes.meet_rank_ms": total_ms("layers", "codes.meet_rank"),
        "codes.meet_pairs_n": count("layers", "codes.meet_pairs_n"),
    })
    m.update({f"codes.{k}": v for k, v in latency("decode", "codes.decode").items()})
    n_dec = m["codes.decode_n"]
    m["codes.decode_ok_ratio"] = count("decompose", "codes.decode_ok") / n_dec if n_dec else 0.0
    m.update({f"netsim.{k}": v for k, v in latency("propagate", "netsim.propagate").items()})
    run_ms = total_ms("layers", "netsim.run_trials")
    m["netsim.run_trials_ms"] = run_ms
    m["netsim.trials_per_s"] = count("layers", "netsim.trials") / (run_ms / 1e3) if run_ms else 0.0
    m["blockfile.render_ms"] = total_ms("layers", "blockfile.render")
    m["blockfile.parse_ms"] = total_ms("layers", "blockfile.parse")
    m["blockfile.bytes"] = count("layers", "blockfile.bytes")
    m["cli.self_ms"] = sum(st["cli_self_ms"] for st in steps)
    m["trace.overhead_ms"] = sum((st["layers"]["wall_s"] - st["untraced_wall_s"]) * 1e3
                                 for st in steps)
    return {"kind": "trace", "env": environment(seed, wl.name),
            "attempted": checker.attempted, "failed": checker.failed,
            "errors": checker.errors, "steps": steps,
            "self_ms_by_layer": self_ms_by_layer, "metrics": m}


def print_trace(rec: dict):
    env = rec["env"]
    print(f"workload={env['workload']} seed={env['seed']} traced run: one pipeline; "
          f"each command untraced, then in the layers and decompose passes")
    print_env(env)
    for st in rec["steps"]:
        layers = ", ".join(f"{k}={v:.1f}" for k, v in sorted(
            st["layers"]["self_ms"].items(), key=lambda kv: -kv[1]))
        inner = ", ".join(f"{k}={v:.1f}" for k, v in sorted(
            st["decompose"]["self_ms"].items(), key=lambda kv: -kv[1]) if k != "cli.main")
        print(f"  {st['metric']:<11} untraced={st['untraced_wall_s'] * 1e3:.1f}ms "
              f"{' '.join(st['argv'])}")
        print(f"    self ms (layers pass): {layers}")
        if inner:
            print(f"    self ms (decompose pass): {inner}")
    print("  self ms by layer (layers pass): " + ", ".join(
        f"{k}={v:.1f}" for k, v in sorted(rec["self_ms_by_layer"].items())))
    for m in PER_LAYER:
        print(f"  {m.name:<30} {m.unit:<6} {rec['metrics'][m.name]:.6g}")
    for err in rec["errors"]:
        print(f"  ERROR {err}")


def result_line(rec: dict, metrics) -> str:
    return json.dumps({
        "correct": rec["failed"] == 0, "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m.name: {"value": rec["metrics"][m.name], "unit": m.unit}
                    for m in metrics}})


def bench_one(wl, seed: int, seconds: float, trace: bool) -> dict:
    check_tree()
    work = HERE / "_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rec = trace_run(wl, seed, work) if trace else e2e_run(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    return rec


def save(rec: dict) -> Path:
    """Write a run's full record (samples, spans, environment) under results/."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = results / (f"{rec['kind']}-{rec['env']['workload']}-seed{rec['env']['seed']}"
                     f"-{stamp}-{os.getpid()}.json")
    out.write_text(json.dumps(rec) + "\n")
    return out


# --- comparing two result sets ----------------------------------------------------------

def load_results(path: Path) -> list:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    recs = []
    for f in files:
        data = json.loads(f.read_text())
        recs += data if isinstance(data, list) else [data]
    return [r for r in recs if r.get("kind") == "e2e"]


def verdict(metric, a: list, b: list) -> str:
    """ok, regressed or unresolved for B (the change) against A (the parent)."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1 if metric.better == "lower" else -1
    if ma == 0:
        return "regressed" if sign * mb > 0 else "ok"
    worse = sign * (mb - ma) / ma
    spread = max((quartiles(v)[2] - quartiles(v)[0]) / abs(m)
                 for v, m in ((a, ma), (b, mb)) if m)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > metric.bound and not all_better:
        return "unresolved"
    return "regressed" if worse > metric.bound else "ok"


def compare(path_a: Path, path_b: Path) -> int:
    a_recs, b_recs = load_results(path_a), load_results(path_b)
    if not a_recs or not b_recs:
        raise BenchError("each result set needs at least one e2e result")
    regressed = False
    print(f"{'workload':<9} {'metric':<12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>8} {'bound':>6} verdict")
    for name in WORKLOADS:
        for m in END_TO_END:
            a = [r["metrics"][m.name] for r in a_recs
                 if r["env"]["workload"] == name and m.name in r["metrics"]]
            b = [r["metrics"][m.name] for r in b_recs
                 if r["env"]["workload"] == name and m.name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            v = verdict(m, a, b)
            regressed |= v == "regressed"
            delta = f"{(qb[1] - qa[1]) / qa[1]:+.1%}" if qa[1] else "-"
            print(f"{name:<9} {m.name:<12} "
                  f"{qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a):<3} "
                  f"{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b):<3} "
                  f"{delta:>8} {m.bound:>6} {v}")
    return 1 if regressed else 0


# --- BENCHMARK.json -------------------------------------------------------------------------

def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END if m.gated],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.write_manifest:
            (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            # one process per workload
            return max(subprocess.run([sys.executable, __file__, "--workload", name,
                                       "--seed", str(args.seed),
                                       "--seconds", str(args.seconds),
                                       "--trace", str(args.trace)]).returncode
                       for name in WORKLOADS)
        pin_to_one_cpu()
        rec = bench_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        save(rec)
        (print_trace if args.trace else print_e2e)(rec)
        print(result_line(rec, PER_LAYER if args.trace else
                          [m for m in END_TO_END if m.gated]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
