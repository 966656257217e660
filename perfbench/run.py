"""Run one polytri benchmark workload and print its metrics.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root; the package is imported from ./src, so there
is nothing to build.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  A
full result with the samples, failures, Python version, cpu count and git
sha is also written to .perfbench_out/.

Each pass of a workload runs in a fresh process, cold, as a polytri
command would.  Passes repeat until the next one would end after
--seconds, but at least MIN_PASSES run (so a long pass overruns
--seconds).  Workers run with POLYTRI_THREADS removed from their
environment, so verify always uses its default thread count.  Set-up
time -- interpreter start, imports and input generation, up to the first
timed op -- is sampled on every process started, topped up with
set-up-only processes to SETUP_SAMPLES, and its median is reported.

Times are reported at reference speed: each worker samples the speed of
the machine with reference.py right after set-up and after every op, and
each measured time is scaled by the speed sampled just before and after it
(see reference.py for why).  Ops longer than RAW_OVER_S (the verify report)
are reported raw.  The raw seconds are kept in the result file.

The traced run makes one untraced pass and one traced pass (plus, for
verify, the suites run one after another with no pool, and for model the
deep-input probe); trace.overhead_s is the difference of the two passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify", "disjoint", "model", "listing")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# Each op's latency is its median over a run's passes.  The reference
# corrects ops of seconds least (verify, listing) and cannot see noise that
# stays with one process (disjoint's p50), so those workloads take several
# passes.
# verify's op takes about 25 s; a third pass would not fit the run budget
# (README.md).
MIN_PASSES = {"verify": 2, "disjoint": 2, "listing": 3}
REF_AFTER_SETUP_S = 0.2  # reference sample right after set-up
REF_SHARE = 0.1  # reference sample after each op, as a share of its time
REF_MIN_S = 0.01  # shortest reference sample after one op
# An op longer than this is reported raw, with no reference after it.  It
# averages the machine's fast swings in speed by itself, and a reference
# sample short enough to afford is noisier than the op: 1 s samples in
# fresh processes differed by up to 38%, two verify passes by 1-10%.
RAW_OVER_S = 5.0


# -- worker: one fresh process per pass ------------------------------------------


def worker(mode: str, workload: str, seed: int, traced: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    make_inputs, op = workloads.WORKLOADS[workload]
    items = (workloads.deep_inputs if mode == "deep" else make_inputs)(seed)
    print("ready", flush=True)
    result = {"setup_ref": reference.sample(REF_AFTER_SETUP_S),
              "verify_threads": workloads.verify.thread_count()}
    if mode == "deep":
        result["deep_failures"] = workloads.deep_probe(items)
    elif mode == "sequential":
        seconds = workloads.verify_sequential()
        result["sequential"] = seconds
    elif mode == "pass":
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            workloads.instrument(tracer)
        ops, refs = [], []
        for args in items:
            ops.append(workloads.guarded(op, *args))
            latency = ops[-1].latency
            refs.append(reference.sample(max(REF_SHARE * latency, REF_MIN_S))
                        if latency <= RAW_OVER_S else (0.0, 0))
        result.update(
            ops=[[o.latency, o.ok, o.units, o.detail] for o in ops],
            refs=refs,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(str(OUT_DIR / f"spans-{workload}-seed{seed}.txt.gz"))
    print(json.dumps(result), flush=True)
    return 0


# -- parent: starts the workers and turns their samples into metrics -----------


def speed(*samples) -> float:
    """Reference speed over (elapsed, chunks) samples: raw seconds times
    this factor gives seconds at reference speed."""
    return (reference.REFERENCE_CHUNK_S * sum(c for _, c in samples)
            / sum(e for e, _ in samples))


def scaled_latencies(result: dict) -> list[float]:
    """Each op's latency at reference speed, read from the samples just
    before and after the op; an op longer than RAW_OVER_S stays raw."""
    refs = [result["setup_ref"]] + result["refs"]  # refs[i] precedes op i
    return [op[0] if op[0] > RAW_OVER_S else op[0] * speed(refs[i], refs[i + 1])
            for i, op in enumerate(result["ops"])]


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = perf_counter() + DEADLINE_S
        self.raw_setups: list[float] = []
        self.setups: list[float] = []
        self.verify_threads: set[int] = set()
        self.env = {k: v for k, v in os.environ.items() if k != "POLYTRI_THREADS"}

    def launch(self, mode: str, traced: bool = False) -> dict:
        cmd = [sys.executable, str(HERE / "run.py"), "--worker", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(int(traced))]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env)
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"{mode} worker failed with exit code {proc.returncode}")
        result = json.loads(out.splitlines()[-1])
        self.raw_setups.append(setup)
        self.setups.append(setup * speed(result["setup_ref"]))
        self.verify_threads.add(result["verify_threads"])
        return result

    def top_up_setups(self) -> None:
        while len(self.setups) < SETUP_SAMPLES:
            self.launch("setup")


PERCENTILE_BAND = 0.05  # half-width of a percentile's rank band, as a share


def percentile(values: list[float], q: float) -> float:
    """The q-quantile, smoothed: the mean of the values whose rank lies
    within PERCENTILE_BAND * len(values) of the quantile's rank (ranks 45-55
    of 100 for the median).  A single order statistic carries one op's
    noise; the band averages eleven ops'.  With under 20 values it is the
    value at the nearest rank."""
    ordered = sorted(values)
    centre = round((len(ordered) - 1) * q)
    k = int(PERCENTILE_BAND * len(ordered))
    return statistics.fmean(ordered[max(0, centre - k):centre + k + 1])


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    passes = []
    start = perf_counter()
    while True:
        begun = perf_counter()
        passes.append(runner.launch("pass"))
        cost = perf_counter() - begun
        if (len(passes) >= MIN_PASSES.get(runner.workload, 1)
                and perf_counter() - start + cost > seconds):
            break
    if runner.workload == "model":
        deep = runner.launch("deep")["deep_failures"]
        print(f"deep_input_failures {len(deep)} {deep}", file=sys.stderr)
    runner.top_up_setups()

    # Every pass repeats the same ops in the same order; each op's latency
    # is its median over the passes.
    per_op = list(zip(*(scaled_latencies(p) for p in passes)))
    latencies = [statistics.median(runs) for runs in per_op]
    units = sum(min(runs) for runs in zip(*([op[2] for op in p["ops"]] for p in passes)))
    ops = [op for p in passes for op in p["ops"]]
    wall = sum(latencies)
    metrics = {
        "setup_s": statistics.median(runner.setups),
        "wall_s": wall,
        "ops_per_s": units / wall,
        "op_p50_ms": percentile(latencies, 0.5) * 1000,
        "op_p90_ms": percentile(latencies, 0.9) * 1000,
        "ops_ok_frac": sum(op[1] for op in ops) / len(ops),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    samples = {"passes": len(passes), "ops": len(ops),
               "setups": runner.setups, "raw_setups": runner.raw_setups,
               "pass_walls": [sum(scaled_latencies(p)) for p in passes],
               "raw_pass_walls": [sum(op[0] for op in p["ops"]) for p in passes]}
    return metrics, ops, samples


def traced(runner: Runner) -> tuple[dict, list, dict]:
    plain = runner.launch("pass")
    traced_pass = runner.launch("pass", traced=True)
    # The layers' seconds get the pass's overall ratio of scaled to raw time.
    factor = (sum(scaled_latencies(traced_pass))
              / sum(op[0] for op in traced_pass["ops"]))
    metrics = {name: value * factor if name.endswith("_s") else value
               for name, value in traced_pass["layers"].items()}
    metrics["trace.overhead_s"] = (sum(scaled_latencies(traced_pass))
                                   - sum(scaled_latencies(plain)))
    if runner.workload == "verify":
        metrics["verify.sequential_s"] = runner.launch("sequential")["sequential"]
    if runner.workload == "model":
        metrics["deep_input_failures"] = len(runner.launch("deep")["deep_failures"])
    ops = plain["ops"] + traced_pass["ops"]
    return metrics, ops, {"ops": len(ops), "speed": factor}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("pass", "setup", "deep", "sequential"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polytri" / "__init__.py").is_file():
        print("run.py: no src/polytri here; run from the repository root", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args.worker, args.workload, args.seed, bool(args.trace))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            measured, ops, samples = traced(runner)
        else:
            measured, ops, samples = end_to_end(runner, args.seconds)
    except RuntimeError as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    failures = [op[3] for op in ops if not op[1]]
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": metrics}
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "verify_threads": sorted(runner.verify_threads)}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(env, result=result, samples=samples, failures=failures[:20])
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
