"""Benchmark of the `boxicity` CLI: end-to-end jobs, or a traced in-process pass.

    python3 perfbench/run.py --workload construct_verify --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the package is taken from its `src/`.
With `--trace 0`, one closed-loop client runs the workload's jobs as CLI
subprocesses, one at a time, in passes over the input set (each pass in a
fresh seeded shuffle) until `--seconds` have passed, the first pass in
full; between jobs it runs the fixed work of `reference.py`, which the
jobs' wall times are scaled by.  With `--trace 1`, the same inputs are
replayed in-process, each unit untraced and traced back to back, in as
many passes as should end within `--seconds` (at least one), and the
per-layer metrics come from the traced side.  Every output is checked after
the timed region.  The last line of stdout is the JSON result; see
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from checker import Checker  # noqa: E402
from workloads import TIME_LIMIT, WORKLOADS, build  # noqa: E402

SETUPS = 7  # set-up is repeated and its median reported
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# The reference work runs before a job once REF_EVERY_S have passed since
# its last run.  A job run's time is scaled by REF_NOMINAL_S, about what the
# reference takes on the VM the benchmark was tuned on, over the mean time
# of the reference runs within REF_WINDOW_S of it.
REF_EVERY_S = 1.0
REF_WINDOW_S = 3.0
REF_NOMINAL_S = 0.2
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
CERT_FLAG = {"acyclic": "--coloring", "girth4": "--partition", "figure1": "--classification"}


def cli_argv(spec: dict) -> list[str]:
    cmd = spec["cmd"]
    budget = []
    if "max_nodes" in spec:
        budget = ["--max-nodes", str(spec["max_nodes"]), "--time-limit", str(TIME_LIMIT)]
    if cmd == "construct":
        argv = ["construct", spec["kind"], spec["graph"], "-o", spec["out"]]
        if "cert" in spec:
            argv += [CERT_FLAG[spec["kind"]], spec["cert"]]
        return argv + budget
    if cmd == "verify":
        return ["verify", spec["graph"], spec["rep"]]
    if cmd == "derive":
        return ["derive", spec["graph"], spec["script"], "-o", spec["out"],
                "--report", spec["report"]]
    if cmd == "exact":
        return ["exact", spec["graph"], "-o", spec["out"]] + budget
    if cmd == "poset":
        if "check" in spec:
            return ["poset", spec["graph"], "--check-dimension", str(spec["check"])] + budget
        return ["poset", spec["graph"], "-o", spec["out"]]
    raise ValueError(f"unknown command {cmd!r}")


def materialize(spec: dict, pass_dir: Path) -> dict:
    return {k: str(pass_dir / v[1:]) if isinstance(v, str) and v.startswith("@") else v
            for k, v in spec.items()}


def percentile(values, p: float, weights=None) -> float:
    """Harrell-Davis estimate of the p-th percentile: a beta-weighted mean
    of all order statistics, steadier than one or two of them when the
    samples are few.  With `weights`, each sample stands for its share of
    the distribution and the beta parameters use Kish's effective sample
    size, the weighted form of the estimator."""
    pairs = sorted(zip(values, weights or [1.0] * len(values)))
    total = sum(w for _, w in pairs)
    n = total * total / sum(w * w for _, w in pairs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    upper, acc = [], 0.0  # each sample's upper end on [0, 1]
    for _, w in pairs:
        acc += w / total
        upper.append(acc)
    mass = [0.0] * len(pairs)
    steps = 200 * len(pairs)  # midpoint rule
    i = 0
    for k in range(steps):
        t = (k + 0.5) / steps
        while i < len(pairs) - 1 and t >= upper[i]:
            i += 1
        mass[i] += t ** (a - 1) * (1 - t) ** (b - 1)
    return sum(x * m for (x, _), m in zip(pairs, mass)) / sum(mass)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it; caps
    the workload's fixed tail percentile when a run makes too few."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / samples)))


def reference_s(env: dict) -> float:
    """Wall time of the fixed reference work (`reference.py`) as a child
    process: it slows down with the host and not with the code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py")], check=True,
                   stdout=subprocess.DEVNULL, env=env)
    return time.perf_counter() - t0


def host_sample() -> dict:
    """Steal ticks and load average, read-only, to attribute drift."""
    out = {}
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        out["steal_ticks"] = int(fields[8]) if len(fields) > 8 else None
        with open("/proc/loadavg") as handle:
            out["loadavg_1m"] = float(handle.read().split()[0])
    except OSError:
        pass
    return out


def child_startup_s() -> float:
    """Interpreter start plus `import boxicity.cli`, as a child process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import boxicity.cli"], check=True,
                   env={**os.environ, **CHILD_ENV})
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, scale: float, run_dir: Path):
    """Generate, write and check every input, then warm up: byte-compile the
    package and start it once, so no timed job pays for either.  Returns
    the inputs, the median set-up time and the mean time of the reference
    work run after each set-up."""
    times, refs, w = [], [], None
    env = {**os.environ, **CHILD_ENV}
    for i in range(SETUPS):
        t0 = time.perf_counter()
        inputs = run_dir / f"inputs{i}"
        inputs.mkdir(parents=True)
        w = build(workload, inputs, seed, scale)
        for job in w.jobs():
            for key in ("graph", "rep", "script", "cert"):
                path = job.spec.get(key, "@")
                if not path.startswith("@"):
                    doc = json.loads(Path(path).read_text())
                    if key == "graph" and any(not 0 <= u < v < doc["n"] for u, v in doc["edges"]):
                        raise SystemExit(f"generated graph {path} is malformed")
        compileall.compile_dir(str(SRC / "boxicity"), force=True, quiet=1)
        child_startup_s()
        times.append(time.perf_counter() - t0)
        refs.append(reference_s(env))
    return w, statistics.median(times), statistics.mean(refs)


def run_pass(w, rng, pass_dir: Path, env: dict, refs: list, deadline=math.inf):
    """One pass of CLI jobs in a fresh shuffle, stopping early at a unit
    boundary once `deadline` (a perf_counter time) has passed; before a
    job, `reference_s` is sampled into `refs` as (midpoint, wall) if
    REF_EVERY_S have passed since the last sample.  A job run's result
    ends with the midpoint of its run."""
    pass_dir.mkdir()
    units = list(w.units)
    rng.shuffle(units)
    out = []
    for unit in units:
        if time.perf_counter() >= deadline:
            break
        for job in unit:
            if not refs or time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                wall = reference_s(env)
                refs.append((time.perf_counter() - wall / 2, wall))
            spec = materialize(job.spec, pass_dir)
            out.append((job, spec) + run_child(spec, env))
    return out


def run_child(spec: dict, env: dict):
    argv = [sys.executable, "-m", "boxicity"] + cli_argv(spec)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode(), wall, usage.ru_maxrss / 1024, t0 + wall / 2


def check_all(results, checker: Checker):
    failures = []
    for job, spec, code, stdout, *_ in results:
        found = checker.problem(job, spec, code, stdout)
        if found:
            failures.append(f"{job.key}: {found}")
    return failures


def measure_cli(w, seed: int, seconds: float, run_dir: Path, setup: tuple[float, float]):
    """Closed loop, one client: jobs run back to back as CLI subprocesses
    until `seconds` have passed, the first pass always in full."""
    env = {**os.environ, **CHILD_ENV}
    rng = random.Random(f"order:{seed}")
    host0 = host_sample()
    refs: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    results = run_pass(w, rng, run_dir / "pass0", env, refs)
    passes = 1
    while time.perf_counter() - t0 < seconds:
        results += run_pass(w, rng, run_dir / f"pass{passes}", env, refs, t0 + seconds)
        passes += 1
    elapsed = time.perf_counter() - t0
    host1 = host_sample()

    # The host's speed drifts within seconds and from minute to minute, so
    # the same code can run a fifth slower in one run than in the next.
    # The reference work slows down alike, so every job run's wall time is
    # divided by the host factor around it: the mean time of the reference
    # runs within REF_WINDOW_S of its midpoint (of the whole run if fewer
    # than two) over REF_NOMINAL_S.  The set-up time is scaled by the
    # reference runs made between set-ups.  The raw figures are kept in the
    # diagnostics.
    ref_walls = [wall for _, wall in refs]

    def host_at(t: float) -> float:
        near = [wall for mid, wall in refs if abs(mid - t) <= REF_WINDOW_S]
        return statistics.mean(near if len(near) >= 2 else ref_walls) / REF_NOMINAL_S

    hosts = [host_at(r[6]) for r in results]
    # Each job's mean wall time over its reruns: taking it per job keeps a
    # partly done last pass from tilting the mix of jobs.  The tail is taken
    # over every job run, each weighted by 1 / (runs of its job), so that
    # every job weighs alike there too.
    p_tail = min(w.tail_percentile, tail_percentile(len(results)))

    def timings(walls):
        by_key: dict[str, list[float]] = {}
        for r, wall in zip(results, walls):
            by_key.setdefault(r[0].key, []).append(wall)
        means = [statistics.mean(v) for v in by_key.values()]
        weights = [1 / len(by_key[r[0].key]) for r in results]
        return by_key, {"jobs_per_s": len(means) / sum(means),
                        "job_p50_s": percentile(means, 50),
                        "job_tail_s": percentile(walls, p_tail, weights)}

    by_key, raw = timings([r[4] for r in results])
    _, scaled = timings([r[4] / h for r, h in zip(results, hosts)])
    raw["setup_s"] = setup[0]
    # per job, not per attempt: a job's outcome is the same on every rerun
    # (the checker fails it otherwise), so this share repeats exactly
    decided = {job.key for job, _, code, *_ in results if code != 3}
    steal = None
    if host0.get("steal_ticks") is not None and host1.get("steal_ticks") is not None:
        steal = host1["steal_ticks"] - host0["steal_ticks"]
    diagnostics = {
        "passes": passes,
        "raw": {name: round(value, 4) for name, value in raw.items()},
        "host_factor": [round(min(hosts), 4), round(statistics.median(hosts), 4),
                        round(max(hosts), 4)],
        "reference_s": {"mean": round(statistics.mean(ref_walls), 4),
                        "min": round(min(ref_walls), 4), "max": round(max(ref_walls), 4),
                        "runs": len(ref_walls)},
        "wall_jobs_per_s": round(len(results) / elapsed, 4),
        "job_rerun_spread": round(statistics.median(
            (max(v) - min(v)) / min(v) for v in by_key.values()), 4),
        "steal_ticks": steal,
        "loadavg_1m": [host0.get("loadavg_1m"), host1.get("loadavg_1m")],
        "tail_percentile": p_tail, "samples": len(by_key), "tail_samples": len(results),
    }
    per_job = f"{len(by_key)} jobs x {len(results) / len(by_key):.1f} runs"
    per_ref = f", scaled by {len(ref_walls)} reference runs"
    metrics = {
        "jobs_per_s": (scaled["jobs_per_s"], "1/s", per_job + per_ref),
        "job_p50_s": (scaled["job_p50_s"], "s", per_job + per_ref),
        "job_tail_s": (scaled["job_tail_s"], "s",
                       f"{len(results)} job runs, p{p_tail}" + per_ref),
        "decided_frac": (len(decided) / len(by_key), "fraction", f"{len(by_key)} jobs"),
        "peak_rss_mb": (max(r[5] for r in results), "MB", f"{len(results)} job runs"),
        "setup_s": (setup[0] / (setup[1] / REF_NOMINAL_S), "s",
                    f"median of {SETUPS} set-ups, scaled by a reference run after each"),
    }
    return results, metrics, diagnostics


def measure_traced(w, seed: int, seconds: float, run_dir: Path):
    sys.path.insert(0, str(SRC))
    from tracing import Tracer, replay

    rng = random.Random(f"order:{seed}")
    tracer = Tracer()
    startup = statistics.median(child_startup_s() for _ in range(5))
    results, walls = [], {"plain": [], "traced": []}
    t0 = time.perf_counter()
    pass_s = 0.0  # longest pass so far
    # Each unit runs untraced and traced back to back, which goes first
    # alternating, so host drift lands on both sides alike; a further pass
    # only if it should end within `seconds`.
    while not walls["traced"] or time.perf_counter() - t0 + pass_s <= seconds:
        tp = time.perf_counter()
        dirs = {label: run_dir / f"pass{len(walls[label])}-{label}" for label in walls}
        for d in dirs.values():
            d.mkdir()
        units = list(w.units)
        rng.shuffle(units)
        busy = dict.fromkeys(walls, 0.0)
        for i, unit in enumerate(units):
            for label in ("plain", "traced") if i % 2 else ("traced", "plain"):
                on = tracer if label == "traced" else None
                if on:
                    tracer.install()
                tu = time.perf_counter()
                try:
                    for job in unit:
                        spec = materialize(job.spec, dirs[label])
                        results.append((job, spec) + replay(spec, cli_argv(spec), on))
                finally:
                    busy[label] += time.perf_counter() - tu
                    tracer.uninstall()
        for label, t in busy.items():
            walls[label].append(t)
        pass_s = max(pass_s, time.perf_counter() - tp)

    n = len(walls["traced"])
    self_s = {name: t / n for name, t in tracer.self_times().items()}
    counts = {name: c / n for name, c in tracer.counts.items()}

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counts.get(name, 0.0)

    plain_s, traced_s = statistics.mean(walls["plain"]), statistics.mean(walls["traced"])
    exact_s = s("exact.refute") + s("exact.witness")
    metrics = {
        "cli.startup_s": (startup, "s"),
        "graphs.load_s": (s("graphs.load"), "s"),
        "boxes.decode_s": (s("boxes.decode"), "s"),
        "boxes.encode_s": (s("boxes.encode"), "s"),
        "boxes.build_s": (s("boxes.build"), "s"),
        "boxes.verify_s": (s("boxes.verify"), "s"),
        "boxes.verify_pairs": (c("boxes.verify_pairs"), "count"),
        "boxes.verify_pairs_per_s": (c("boxes.verify_pairs") / max(s("boxes.verify"), 1e-9), "1/s"),
        "figure1.build_s": (s("figure1.build"), "s"),
        "figure1.check_s": (s("figure1.check"), "s"),
        "certificates.validate_s": (s("certificates.validate"), "s"),
        "derivation.decode_s": (s("derivation.decode"), "s"),
        "derivation.dry_run_s": (s("derivation.dry_run"), "s"),
        "derivation.assemble_s": (s("derivation.assemble"), "s"),
        "derivation.steps": (c("derivation.steps"), "count"),
        "derivation.step_vertices": (c("derivation.step_vertices"), "count"),
        "exact.refute_s": (s("exact.refute"), "s"),
        "exact.refute_nodes": (c("exact.refute_nodes"), "count"),
        "exact.witness_s": (s("exact.witness"), "s"),
        "exact.witness_nodes": (c("exact.witness_nodes"), "count"),
        "exact.nodes_per_s": ((c("exact.refute_nodes") + c("exact.witness_nodes"))
                              / max(exact_s, 1e-9), "1/s"),
        "exact.capped_calls": (c("exact.capped_calls"), "count"),
        "exact.finder_s": (s("exact.finder"), "s"),
        "posets.realizer_s": (s("posets.realizer"), "s"),
        "posets.dimension_s": (s("posets.dimension"), "s"),
        "trace.pass_s": (traced_s, "s"),
        "trace.untraced_pass_s": (plain_s, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1, "fraction"),
    }
    metrics = {name: (value, unit, f"{n} traced passes") for name, (value, unit) in metrics.items()}
    spans_file = WORK / "spans" / f"{run_dir.name}.json"
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[name, start - t0, end - t0, parent]
                  for name, start, end, parent in tracer.spans]}))
    diagnostics = {"passes": n,
                   "busy_s": {k: [round(x, 4) for x in v] for k, v in walls.items()},
                   "spans_per_pass": len(tracer.spans) / n,
                   "spans_file": str(spans_file.relative_to(ROOT))}
    return results, metrics, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink instance sizes (the self-check uses a tiny scale)")
    args = parser.parse_args(argv)
    if not (SRC / "boxicity" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/boxicity; run from a checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind like an interrupt: kill the running job, clean up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        w, *setup = set_up(args.workload, args.seed, args.scale, run_dir)
        if args.trace:
            results, metrics, diagnostics = measure_traced(w, args.seed, args.seconds, run_dir)
        else:
            results, metrics, diagnostics = measure_cli(w, args.seed, args.seconds, run_dir,
                                                        setup)
        checker = Checker()
        failures = check_all(results, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # spans kept, or another run still using it
            pass
    attempted = len(results)
    if not args.trace:
        metrics["ok_frac"] = ((attempted - len(failures)) / attempted, "fraction",
                              f"{attempted} job runs")
    diagnostics["jobs_per_pass"] = len(w.jobs())

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (samples: {samples})")
    if checker.outcomes:
        print("exact outcomes [exit, status, value, lower bound, nodes]: "
              + json.dumps(dict(sorted(checker.outcomes.items()))))
    print("diagnostics: " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
