"""signedbn benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each run is a fresh process, single-threaded, closed loop: one
call into ``signedbn`` at a time.  A pass makes every call of the
workload once, on a fresh import of the library, so that its caches start
empty as in a CLI invocation.  A run makes as many passes as fit in
``--seconds`` at the nominal pass time, and without tracing at least
MIN_PASSES.  Before each call the pass times a fixed piece of pure-Python
reference work; each call's time is scaled to the reference speed by the
reference times around it, and the timings are each call's median of its
scaled times over the passes.  The unscaled figures are printed too.  A call
that overran its budget is not run again in the same run, since it would
only overrun again.  Every workload makes more than 100 calls per pass,
so that at least ten lie beyond the 90th percentile.  Every call has a
CPU-time budget; a call that raises, overruns it or gives a wrong answer
counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, half as many of each, and prints the
per-layer metrics read from spans around the library's public functions,
plus the tracing overhead.  The last line of standard output is the JSON
result.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import Overrun, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# CPU seconds per call, by workload.  Where this benchmark was defined,
# no call that finished took more than 1.5 s in analyze, 0.5 s in verify
# or 0.4 s in dynamics, and every analyze call that reaches one of the
# exact code searches the ROADMAP lists as hanging ran for more than 45 s.
BUDGET_S = {"analyze": 4.0, "verify": 4.0, "dynamics": 12.0}
# Seconds one untraced pass takes, without the calls that overran, on a
# 2-core x86-64 machine where this benchmark was defined.  A run makes
# round(--seconds / this) passes, so that its work is fixed and does not
# depend on the machine's speed.
NOMINAL_PASS_S = {"analyze": 9.0, "verify": 3.2, "dynamics": 2.8}
# Every call is timed at least this often and its median time counts.  On
# a shared host the same call runs in short spells at up to 1.6 times its
# usual speed, when nothing else contends for the core; how often a call
# meets such a spell varies from run to run, so its fastest time does too,
# while its median time stays with the usual speed.
MIN_PASSES = 5
# Median seconds of reference_work() on that machine.  Each pass also
# times the reference work once before every call, and each call's time
# is scaled by this over the median reference time of the calls around
# it: the host's speed shifts by up to 1.6 times for seconds or minutes at
# a time, with the load that other tenants put on the shared cores, and
# the scaling takes such shifts out while leaving every change in the
# library's own speed.
REFERENCE_S = 0.0004
# Reference times on each side of a call that its scale is taken from.
REFERENCE_WINDOW = 10
# Reference runs timed after each set-up, to scale the set-up time.
SETUP_REFERENCES = 25
# Analyze inputs whose CLI output is compared byte for byte.
CLI_SAMPLE = ("figure1-", "random-n6-")
CLI_SAMPLE_RANDOM = 3
MODULES = ("cli", "boolnet", "codes", "falsify", "formats", "generators", "graphs", "structure")


def load_library():
    """Import signedbn afresh, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "signedbn" or m.startswith("signedbn.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"signedbn.{m}") for m in MODULES})
    # The package binds the name ``kernels`` to the function, so the
    # module comes from sys.modules.
    lib.kernels = sys.modules["signedbn.kernels"]
    return lib


def _overrun(signum, frame):
    raise Overrun()


def timed(call, budget: float):
    """Run one call under a CPU budget: (status, raw result, seconds)."""
    raw, status = None, "ok"
    try:
        signal.setitimer(signal.ITIMER_PROF, budget)
        start = perf_counter()
        try:
            raw = call.run()
        except Overrun:
            status = "timeout"
        except Exception as exc:  # a failed call is recorded, the run goes on
            status = f"error {type(exc).__name__}: {exc}"
        finally:
            seconds = perf_counter() - start
            signal.setitimer(signal.ITIMER_PROF, 0)
    except Overrun:  # the budget ran out between the call's return and disarming
        status = "timeout"
    return status, raw, seconds


def reference_work(n: int = 2000) -> int:
    """A fixed piece of pure-Python work, independent of the library, to
    gauge the machine's speed at the moment."""
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total = (total * 31 + i) & 0xFFFFF
    return total + len(table)


def reference_seconds(times: int) -> float:
    """Median seconds of reference_work() over back-to-back runs."""
    samples = []
    for _ in range(times):
        start = perf_counter()
        reference_work()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def scale_to_reference(durations, references) -> list[float]:
    """Each call's time at the reference speed: times REFERENCE_S over the
    median of the reference times measured next to it."""
    return [
        seconds * REFERENCE_S
        / statistics.median(references[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 1])
        for i, seconds in enumerate(durations)
    ]


def run_pass(calls, budget: float):
    """One pass over the workload; returns its record."""
    durations, references, failed, outputs = [], [], {}, {}
    for call in calls:
        references.append(reference_seconds(1))
        status, raw, seconds = timed(call, budget)
        durations.append(seconds)
        if status == "ok":
            outputs[call.id] = call.normalize(raw)
        else:
            failed[call.id] = status
    wrong = {}
    for call in calls:
        if call.id in outputs:
            problems = call.check(outputs[call.id], outputs)
            if problems:
                wrong[call.id] = problems
                failed[call.id] = "wrong answer"
    digest = hashlib.sha256(
        json.dumps([[c.id, outputs.get(c.id), c.id in failed] for c in calls]).encode()
    ).hexdigest()
    # Free the pass's garbage now, so that the peak memory does not depend
    # on when the collector happens to run.
    gc.collect()
    # A call that overran ran for its CPU budget, whatever the speed.
    scaled = [
        seconds if failed.get(c.id) == "timeout" else at_speed
        for c, seconds, at_speed in zip(calls, durations, scale_to_reference(durations, references))
    ]
    return SimpleNamespace(
        ids=[c.id for c in calls], durations=durations, failed=failed, wrong=wrong,
        outputs=outputs, digest=digest, reference_s=statistics.median(references), scaled=scaled,
    )


def cli_equivalence(seed: int, outputs) -> list[str]:
    """Compare ``signedbn --format structured analyze`` run as a subprocess
    with the in-process JSON on a fixed sample of inputs that passed."""
    texts = {item.id: item.payload for item in inputs.analyze_items(seed)}
    sample = [i for i in texts if i.startswith(CLI_SAMPLE[0]) and i in outputs]
    sample += [i for i in texts if i.startswith(CLI_SAMPLE[1]) and i in outputs][:CLI_SAMPLE_RANDOM]
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    problems = []
    try:
        for call_id in sample:
            path = work / f"{call_id}.sd"
            path.write_text(texts[call_id], encoding="utf-8")
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "signedbn.cli", "--format", "structured", "analyze",
                     str(path)],
                    capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
                )
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                problems.append(f"CLI timed out on {call_id}")
                continue
            if done.returncode != 0 or done.stdout != outputs[call_id] + "\n":
                problems.append(f"CLI output differs on {call_id}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def call_metrics(times) -> dict[str, tuple[float, str]]:
    """Throughput and latency percentiles of per-call times in seconds."""
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1000 * percentile(times, 50), "ms"),
        "op_p90_ms": (1000 * percentile(times, 90), "ms"),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "signedbn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signedbn" / "__init__.py").is_file():
        print(f"error: no signedbn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGPROF, _overrun)

    budget = BUDGET_S[args.workload]
    setups = []

    def set_up():
        """A fresh import of the library (so its caches start empty, as in
        a CLI invocation) and the workload's calls.  Every pass sets up
        anew; the set-up time is the median over the run, scaled to the
        reference speed like the call times."""
        start = perf_counter()
        calls = WORKLOADS[args.workload](load_library(), args.seed)
        seconds = perf_counter() - start
        setups.append(seconds * REFERENCE_S / reference_seconds(SETUP_REFERENCES))
        # A fixed order that mixes kinds and sizes: the machine's speed
        # drifts over seconds, and calls of one size measured back to back
        # would all see the same spell.
        return sorted(calls, key=lambda c: hashlib.sha256(c.id.encode()).digest())

    calls = set_up()
    to_first_call = perf_counter() - STARTED
    tracer = Tracer() if args.trace else None
    if tracer is None:
        rounds = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    else:
        rounds = max(1, round(args.seconds / (2 * NOMINAL_PASS_S[args.workload])))
    passes = []
    traced_s = untraced_s = 0.0
    overran: set[str] = set()
    for i in range(rounds):
        if i:
            calls = set_up()
            if tracer is None:
                calls = [c for c in calls if c.id not in overran]
        record = run_pass(calls, budget)
        passes.append(record)
        untraced_s += sum(record.durations)
        overran |= {cid for cid, status in record.failed.items() if status == "timeout"}
        if tracer is not None:
            calls = set_up()
            tracer.install()
            try:
                record = run_pass(calls, budget)
            finally:
                tracer.uninstall()
            passes.append(record)
            traced_s += sum(record.durations)

    first = passes[0]
    problems = [f"{cid}: {p}" for cid, ps in first.wrong.items() for p in ps]
    for p in passes[1:]:
        ran = set(p.ids)
        if p.outputs != {cid: out for cid, out in first.outputs.items() if cid in ran}:
            problems.append("passes disagree on the outputs")
        if p.failed.keys() != first.failed.keys() & ran:
            problems.append("passes disagree on the failed calls")
    if args.workload == "analyze":
        problems += cli_equivalence(args.seed, first.outputs)

    # Each call's median time over the passes, as measured and at the
    # reference speed.
    measured: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for p in passes:
        for cid, seconds, at_speed in zip(p.ids, p.durations, p.scaled):
            measured.setdefault(cid, []).append(seconds)
            scaled.setdefault(cid, []).append(at_speed)
    typical = {cid: statistics.median(times) for cid, times in measured.items()}
    at_reference = {cid: statistics.median(times) for cid, times in scaled.items()}
    attempted = sum(len(p.ids) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"commit {commit()}  source {source_digest()}  python {platform.python_version()}  "
        f"nproc {os.cpu_count()}"
    )
    print(
        f"passes {len(passes)}  calls per pass {len(first.ids)}  calls run {attempted}  "
        f"start to first call {to_first_call:.3f} s"
    )
    print(f"digest {first.digest}")
    print(f"failed calls {len(first.failed)} of {len(first.ids)}, failed_ratio "
          f"{len(first.failed) / len(first.ids):.6f}: " + ", ".join(
              f"{cid} ({status})" for cid, status in sorted(first.failed.items())))
    finished = [(typical[cid], cid) for cid in typical if cid not in first.failed]
    if finished:
        seconds, call_id = max(finished)
        print(f"slowest finished call {call_id} {seconds:.3f} s (budget {budget} CPU s)")
    references = [p.reference_s for p in passes]
    print(
        f"reference work {1000 * statistics.median(references):.4f} ms median of passes, "
        f"{1000 * min(references):.4f}..{1000 * max(references):.4f} ms "
        f"(nominal {1000 * REFERENCE_S} ms)"
    )
    for problem in problems:
        print(f"CHECK FAILED {problem}")

    if tracer is None:
        as_measured = call_metrics(list(typical.values()))
        print("as measured, unscaled: " + "  ".join(
            f"{name} = {value:.6g} {unit}" for name, (value, unit) in as_measured.items()))
        metrics = {
            **call_metrics(list(at_reference.values())),
            "ok_ratio": (1 - len(first.failed) / len(first.ids), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(sorted(inputs.FALSIFY_CHUNK), len(passes) // 2)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
