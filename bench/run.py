"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
With ``--trace 0`` it sets the workload up several times (the median is
``setup_s``), then repeats the workload's round of ops, closed loop and one
op at a time, until ``--seconds`` have passed, checking every output. With
``--trace 1`` it replays a fixed number of rounds alternately with and
without spans around the program's public functions, so the work counts
repeat exactly for a seed, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every run also
appends a fuller record (environment, sample counts, every metric) to
``.bench_out/results.jsonl``, or to ``--out``; traced runs write their spans
to ``.bench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-deep", "paths-listing", "contract-wide", "cli-startup")

#: Fewest ops an untraced run times, so that at least ten lie beyond p90.
MIN_SAMPLES = 110
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 11
#: BLAS threads for this process and every child it starts (at most nproc).
BLAS_THREADS = 1
#: Address-space ceiling, so an over-large contraction fails as one op
#: with MemoryError instead of exhausting the machine's memory.
ADDRESS_SPACE_BYTES = 2 * 2**30
#: Loop time of ``Speed`` on the reference machine (the 2-core machine the
#: bounds were set on), and how often a run re-times it.
REFERENCE_LOOP_S = 0.010
SPEED_EVERY_S = 0.25
#: Repetitions of each start-up probe in a traced run.
PROBE_REPS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                        help="file the full result record is appended to")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Fix BLAS threading before numpy is imported, here and in children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, hard))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "bytecode_cache_at_start": CACHE_AT_START,
        "bytecode_cache_at_end": bytecode_cache_state(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def bytecode_cache_state() -> str:
    """Whether src/qpath has a compiled .pyc for this interpreter per module."""
    sources = sorted((ROOT / "src" / "qpath").glob("*.py"))
    cached = sum(Path(importlib.util.cache_from_source(str(s))).is_file() for s in sources)
    return "warm" if cached == len(sources) else "cold" if cached == 0 else f"partial {cached}/{len(sources)}"


CACHE_AT_START = bytecode_cache_state()


# -- timing -------------------------------------------------------------------


class Speed:
    """How fast the machine runs right now, from a fixed pure-Python loop.

    On a shared machine other tenants change how fast this process runs by
    tens of percent, over seconds and over minutes. The loop runs no qpath
    code; it is timed between ops at most every ``SPEED_EVERY_S``. A time
    measured at instant t is reported as it would read at the reference
    speed: multiplied by ``REFERENCE_LOOP_S`` over the median loop time of
    the five samples nearest t.
    """

    def __init__(self):
        self.at: list[float] = []
        self.loop_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and self.at and start - self.at[-1] < SPEED_EVERY_S:
            return
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        self.at.append(start)
        self.loop_s.append(time.perf_counter() - start)

    def scale(self, t: float) -> float:
        k = bisect.bisect_left(self.at, t)
        return REFERENCE_LOOP_S / statistics.median(self.loop_s[max(0, k - 3) : k + 2])


class Tally:
    """Latencies and failures of the ops run in one phase."""

    def __init__(self, speed: Speed | None = None):
        self.speed = speed
        self.latencies: list[float] = []
        self.midpoints: list[float] = []
        self.rounds: list[int] = []
        self.failed = 0
        self.reasons: dict[str, str] = {}

    def run_round(self, ops, tracer=None) -> float:
        """Run every op once; return the op time of the round."""
        spent = 0.0
        round_index = self.rounds[-1] + 1 if self.rounds else 0
        for op in ops:
            index = len(self.latencies)
            reason = None
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.span("op", op=index):
                        result = op.call()
            except Exception as exc:  # MemoryError included: a failed op, not a failed run
                reason = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as exc:  # an unparseable output is a wrong output
                    reason = f"check raised {type(exc).__name__}: {exc}"
                del result
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(op.kind, reason)
            self.latencies.append(elapsed)
            self.midpoints.append(start + elapsed / 2)
            self.rounds.append(round_index)
            spent += elapsed
            if self.speed is not None:
                self.speed.sample()
        return spent

    def scaled(self) -> list[float]:
        """Latencies at the reference speed."""
        return [lat * self.speed.scale(t) for lat, t in zip(self.latencies, self.midpoints)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(workload_cls, seed: int, seconds: float):
    speed = Speed()
    setups, ops = [], None
    for _ in range(SETUP_REPS):
        speed.sample(force=True)
        start = time.perf_counter()
        ops = workload_cls(seed, ROOT).setup()
        setups.append((time.perf_counter() - start, start))
    speed.sample(force=True)
    tally = Tally(speed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(tally.latencies) < MIN_SAMPLES:
        tally.run_round(ops)
    lat = tally.scaled()
    by_round: dict[int, list[float]] = {}
    for r, x in zip(tally.rounds, lat):
        by_round.setdefault(r, []).append(x)
    ordered = sorted(lat)
    p90 = statistics.quantiles(ordered, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(s * speed.scale(t + s / 2) for s, t in setups), "s"),
        "ops_per_s": (statistics.median(len(v) / sum(v) for v in by_round.values()), "1/s"),
        "p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload_cls.name == "cli-startup"), "MB"),
        "ok_ratio": ((len(lat) - tally.failed) / len(lat), "1"),
    }
    raw = sorted(tally.latencies)
    extra = {
        "samples": len(lat),
        "samples_beyond_p90": sum(x > p90 for x in ordered),
        "rounds": len(by_round),
        "ops_per_round": len(ops),
        "speed_loop_ms": statistics.median(speed.loop_s) * 1e3,
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setups),
            "p50_ms": statistics.median(raw) * 1e3,
            "p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        },
    }
    return [tally], metrics, extra


STARTUP_METRICS = (
    "cli.startup.interpreter_ms", "cli.startup.numpy_import_ms",
    "cli.startup.qpath_import_ms", "cli.startup.command_ms",
)


def startup_probes(root: Path) -> dict[str, float]:
    """Interpreter, numpy and qpath import costs from child processes, in ms."""
    from workloads import child_env

    env = child_env(root)
    probes = {"pass": "pass", "numpy": "import numpy", "qpath": "import qpath.cli"}
    times: dict[str, list[float]] = {k: [] for k in probes}
    for _ in range(PROBE_REPS):
        for key, code in probes.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            times[key].append(time.perf_counter() - start)
    med = {k: statistics.median(v) * 1e3 for k, v in times.items()}
    return {
        "cli.startup.interpreter_ms": med["pass"],
        "cli.startup.numpy_import_ms": med["numpy"] - med["pass"],
        "cli.startup.qpath_import_ms": med["qpath"] - med["numpy"],
    }


def run_traced(workload_cls, seed: int):
    from spans import Tracer, contract_peak_bytes
    from workloads import CliStartup

    tracer = Tracer()
    with tracer.patched(), tracer.span("setup"):
        ops = workload_cls(seed, ROOT).setup()
    if workload_cls is CliStartup:
        # Spans cannot reach into a child process: replay the same
        # commands through cli.main in this process instead.
        ops = CliStartup(seed, ROOT).in_process_ops()
    plain, traced, untimed = Tally(), Tally(), Tally()
    plain_s = traced_s = 0.0
    # Overhead compares alternate rounds, so machine speed changes cancel
    # and times here are as measured.
    for _ in range(workload_cls.trace_rounds):
        plain_s += plain.run_round(ops)
        with tracer.patched():
            traced_s += traced.run_round(ops, tracer)
    values = tracer.layer_metrics("op")
    values["tensornet.contract.rss_growth_mb"] = 0.0
    if values["tensornet.contract.calls"]:
        # One more round, outside every span, for contract()'s allocation peak.
        with contract_peak_bytes() as peak:
            untimed.run_round(ops)
        values["tensornet.contract.rss_growth_mb"] = peak[0] / 2**20
    if workload_cls is CliStartup:
        values.update(startup_probes(ROOT))
        values["cli.startup.command_ms"] = statistics.median(plain.latencies) * 1e3
    else:  # a layer this workload does not exercise
        values.update(dict.fromkeys(STARTUP_METRICS, 0.0))
    values["trace.overhead_ratio"] = (len(traced.latencies) / traced_s) / (len(plain.latencies) / plain_s)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload_cls.name}-{seed}.jsonl")
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (values[name], units[name]) for name in units}
    extra = {"spans": len(tracer.spans), "trace_rounds": workload_cls.trace_rounds}
    return [plain, traced, untimed], metrics, extra


def run_all(args) -> int:
    """Each workload in its own process; their metrics prefixed by workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"bench: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qpath" / "__init__.py").is_file():
        print(f"bench: no qpath sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_environment()
    from workloads import WORKLOADS as CLASSES

    workload_cls = CLASSES[args.workload]
    if args.trace:
        tallies, metrics, extra = run_traced(workload_cls, args.seed)
    else:
        tallies, metrics, extra = run_untraced(workload_cls, args.seed, args.seconds)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    reasons = {kind: why for t in tallies for kind, why in t.reasons.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "env": environment(), **extra,
        "failures": reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:14.6g} {unit}")
    for key in ("samples", "samples_beyond_p90", "rounds", "spans"):
        if key in extra:
            print(f"{args.workload:14s} {key:34s} {extra[key]:14d}")
    for kind, reason in reasons.items():
        print(f"FAILED {kind}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
