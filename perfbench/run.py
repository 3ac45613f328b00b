"""tauprimes benchmark: one seeded workload per run, or all four in turn.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process, one thread, one client in a closed loop: each operation
starts when the previous one has returned and been checked.  A run sets
the workload up twelve times, spread between passes, and repeats the
workload's fixed batch of operations ("a pass") while another pass fits
in ``--seconds``, at least once.  Set-ups and checks count against
``--seconds`` too.  Every output is checked by a second route; an
operation fails when it raises, when the CLI exits non-zero, or when its
check disagrees, and a failure never stops the run.

Times are reported at a fixed reference speed: a stdlib-only reference
kernel is timed right after every operation and set-up, and each time is
scaled by ``REF_NOMINAL_S`` over the smaller of its two neighbouring
kernel times (see ``reference``).  The raw times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up once
with tracing on, then alternates untraced and traced passes, prints the
per-layer metrics of the traced set-up plus the fastest traced pass, and
writes the spans of that set-up and pass to
``perfbench/.work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 12
WORKLOAD_NAMES = ("lehmer", "grid", "queries", "analysis")

# The reference kernel's operands, and its time on the 2-core virtual
# machine this benchmark was tuned on when that host ran at its faster speed.
_REF_X = random.Random("perfbench-ref-x").getrandbits(60000)
_REF_Y = random.Random("perfbench-ref-y").getrandbits(60000)
_REF_M = random.Random("perfbench-ref-m").getrandbits(600) | 1 << 599 | 1
REF_NOMINAL_S = 0.003


def reference() -> float:
    """Seconds for one run of the fixed reference kernel.

    The kernel is a pure-Python loop, one 60000-bit integer product and
    one 600-bit modular power, about 1 ms each: the kinds of work the
    program spends its time on (interpreted loops, series products,
    primality tests).  It calls nothing of the program, so a change to the
    program cannot move it.  The host's speed changes by up to 1.9x for
    seconds to minutes at a time; this kernel and the program's operations
    slow down together, so the ratio of an operation's time to its
    neighbouring kernel times stays steady where the raw time does not.
    """
    t0 = perf_counter()
    s = 0
    for i in range(12000):
        s += i * i % 7
    _REF_X * _REF_Y  # noqa: B018  (the product is the work)
    pow(3, _REF_M - 1, _REF_M)
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the kernel times around it.

    The smaller of the two kernel times is used, so one kernel sample hit
    by an interrupt does not make the host look slower than it was.
    """
    return seconds * REF_NOMINAL_S / min(before, after)


def units() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json (the one list of metric names)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_program():
    src = ROOT / "src"
    if not (src / "tauprimes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tauprimes package under {src}")
    sys.path.insert(0, str(src))
    import tauprimes

    if Path(tauprimes.__file__).resolve().parent != (src / "tauprimes").resolve():
        sys.exit(f"perfbench: imported tauprimes from {tauprimes.__file__}, not from {src}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": _commit(),
        "seed": seed,
    }


class Tally:
    """Operation outcomes over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.reasons: Counter = Counter()
        self.refs: list[float] = []

    def run_pass(self, ops, latencies: list[list[float]], tracer=None, pass_no: int = 0) -> float:
        """Run every operation once, appending its scaled time to ``latencies[i]``; returns the raw pass time.

        The reference kernel runs before the first operation and right
        after each one, before its check, so every operation has a kernel
        time on each side.
        """
        from workloads import Mismatch

        total = 0.0
        before = reference()
        self.refs.append(before)
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin((pass_no, i), op.label)
            t0 = perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # any failure of the program is an outcome to count
                error = f"{op.label}: {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end()
            after = reference()
            self.refs.append(after)
            latencies[i].append(scaled(dt, before, after))
            before = after
            if error is None:
                try:
                    op.check(out)
                except Mismatch as exc:
                    error = f"{op.label}: mismatch: {exc}"
                    self.mismatches += 1
                except Exception as exc:  # a check that cannot run is a disagreement too
                    error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
                    self.mismatches += 1
            self.attempted += 1
            total += dt
            if error is not None:
                self.failed += 1
                self.reasons[error[:120]] += 1
        return total


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile with >= 10 ops beyond it.

    A batch too small for that percentile to lie above its median (fewer
    than 21 operations) reports its maximum instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up and run one workload; returns the result record.

    An operation's latency is the median of its scaled times over the
    run's passes, and ``setup_s`` is the median of the scaled set-up times;
    the set-ups are spread between the passes.  On the host this was tuned
    on, whose speed moves by up to 1.9x for minutes at a time, best-of-run
    raw times spread up to 0.42 over ten seeds (IQR over median); these
    scaled medians spread at most 0.06.
    """
    import tracing
    from workloads import WORKLOADS

    setup = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    setup_times = []
    setup_scaled = []

    def kernel_median() -> float:
        # A set-up is one long call, so it gets three kernel runs a side.
        times = [reference() for _ in range(3)]
        tally.refs += times
        return statistics.median(times)

    def set_up():
        before = kernel_median()
        t0 = perf_counter()
        ops = setup(seed, work, tiny)
        setup_times.append(perf_counter() - t0)
        setup_scaled.append(scaled(setup_times[-1], before, kernel_median()))
        return ops

    start = perf_counter()
    try:
        if tracer is not None:
            tracer.install()
            tracer.begin(("setup", 0), "setup")
            ops = set_up()
            tracer.end()
            tracer.uninstall()
        else:
            ops = set_up()
        plain = [[] for _ in ops]
        traced = [[] for _ in ops]
        traced_walls = []
        pass_walls = []
        # Set-ups, passes and checks all count against --seconds: another
        # pass starts only if it fits, as long as the last one with its
        # checks, together with the set-ups still owed.
        while True:
            if tracer is None and len(setup_times) < SETUP_REPEATS and pass_walls:
                set_up()
            t0 = perf_counter()
            if tracer is not None and len(pass_walls) > len(traced_walls):
                mark = len(tracer.spans)
                tracer.install()
                try:
                    traced_walls.append((tally.run_pass(ops, traced, tracer, len(traced_walls)), len(traced_walls)))
                finally:
                    tracer.uninstall()
                tracer.keep_fastest(mark, traced_walls[-1][0])
            else:
                pass_walls.append(tally.run_pass(ops, plain))
            last = perf_counter() - t0
            owed = 0.0 if tracer is not None else (SETUP_REPEATS - len(setup_times)) * max(setup_times)
            if (tracer is None or traced_walls) and perf_counter() - start + last + owed > seconds:
                break
        while tracer is None and len(setup_times) < SETUP_REPEATS:
            set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    typical = [statistics.median(lat) for lat in plain]
    record = {
        "workload": name,
        "passes": len(pass_walls),
        "pass_walls": pass_walls,
        "setup_times": setup_times,
        "refs": tally.refs,
        "ops_per_pass": len(ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": tally.mismatches,
        "reasons": dict(tally.reasons),
    }
    if tracer is None:
        value, pct, beyond = tail(typical)
        record["tail"] = {"percentile": pct, "beyond": beyond, "samples": len(typical)}
        record["metrics"] = {
            "wall_s": sum(typical),
            "op_p50_ms": 1000 * statistics.median(typical),
            "op_tail_ms": 1000 * value,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_scaled),
        }
    else:
        _, fastest = min(traced_walls)
        counts = tracing.tally(tracer.spans, {("setup", 0)})
        for key, value in tracing.tally(tracer.spans, {(fastest, i) for i in range(len(ops))}).items():
            counts[key] = counts.get(key, 0.0) + value
        metrics = tracing.layer_metrics(counts)
        metrics["trace.overhead"] = sum(statistics.median(lat) for lat in traced) / sum(typical)
        record["metrics"] = metrics
        record["traced_passes"] = len(traced_walls)
        record["fastest"] = fastest
        record["spans"] = len(tracer.spans)
        record["tracer"] = tracer
    return record


def report(record: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    print(f"workload={record['workload']} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    print(f"passes={record['passes']} ops_per_pass={record['ops_per_pass']}", end="")
    if trace:
        print(f" traced_passes={record['traced_passes']} spans={record['spans']}")
    else:
        t = record["tail"]
        print(f" tail=p{t['percentile']:.1f} ({t['beyond']} of {t['samples']} ops beyond)")
    print("pass_walls_s=" + " ".join(f"{w:.4f}" for w in record["pass_walls"]))
    print("setup_times_s=" + " ".join(f"{w:.4f}" for w in record["setup_times"]))
    refs = record["refs"]
    print(f"reference_s min={min(refs):.5f} median={statistics.median(refs):.5f} max={max(refs):.5f} "
          f"(nominal {REF_NOMINAL_S:g}; raw times above, scaled metrics below)")
    unit = units()
    for key, value in record["metrics"].items():
        print(f"  {key:28s} {value:16.6f} {unit[key]}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':28s} {ratio:16.6f} ratio  ({record['failed']} failed of {record['attempted']}, "
          f"{record['mismatches']} mismatched)")
    for reason, count in sorted(record["reasons"].items()):
        print(f"  failed x{count}: {reason}")
    return {
        "correct": record["mismatches"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in record["metrics"].items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    # A cache directory named in the environment would be read by the CLI.
    os.environ.pop("TAUPRIMES_CACHE_DIR", None)
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        WORK.mkdir(parents=True, exist_ok=True)
        record.pop("tracer").write(
            WORK / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "environment": environment(args.seed)},
        )
    result = report(record, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
