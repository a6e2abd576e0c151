"""The whiskers benchmark.

    python3 bench/run.py --workload {betti,scm,vd,cli} --seed N \
        --seconds S --trace {0,1}

One client runs a workload's items back to back (a closed loop, no think
time).  Each pass over a workload's items runs in a fresh worker process
(``worker.py``), because the package's memo tables live for the whole
process; passes follow one another until ``--seconds`` have elapsed.  Pass i
of seed N draws its inputs from the seed string ``N:i``.

With ``--trace 0`` the run reports the end-to-end metrics.  Item latencies
and set-up times are scaled to reference machine speed by the probes the
worker times between items (see ``worker.py``); the unscaled figures are
printed and recorded too.  With ``--trace 1`` every pass uses the inputs of
pass 0, traced and untraced passes alternate, and the run reports the
per-layer metrics of ``tracer.py`` (medians over the traced passes) and the
tracing overhead.

Every item's output is checked by the workload's cross-checks and, where
``reference.json`` holds digests for the pass, against the digests taken at
the commit that added the benchmark.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print each metric with its unit, ``failed_frac`` and the machine;
the full run record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ["betti", "scm", "vd", "cli"]
HASH_SEED = "0"
PASS_TIMEOUT_S = 120
# worker.probe took 0.4-0.6 ms on the machine the benchmark was written on
# (Intel Xeon, 2 vCPUs, Python 3.11), so scaled and raw times are close there
PROBE_REF_S = 5e-4

sys.path.insert(0, HERE)
import tracer  # noqa: E402  (stdlib only; does not import whiskers)

END_TO_END = [("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = tracer.metric_names() + [
    ("setup.import_s", "s"), ("setup.inputs_s", "s"),
    ("trace.overhead_ratio", "ratio")]


class BenchError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn_pass(workload: str, seed: str, scale: float, trace: bool) -> dict:
    """Run one pass in a new interpreter; set-up time is measured here, from
    spawning the worker until it reports that its inputs are ready."""
    token = secrets.token_hex(8)
    # every worker compiles from source, whether or not the environment
    # allows bytecode caches, so that set-up time means the same everywhere
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, seed,
           token, repr(scale), "1" if trace else "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(cmd, PASS_TIMEOUT_S)
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} pass {seed} exceeded "
                             f"{PASS_TIMEOUT_S} s") from None
    lines = out.splitlines()
    if (proc.returncode != 0 or not ready.startswith("READY ")
            or not lines or not lines[-1].startswith("RESULT ")):
        raise BenchError(f"worker for {workload} pass {seed} failed "
                         f"(exit {proc.returncode}):\n{err.strip()}")
    record = json.loads(lines[-1][len("RESULT "):])
    # a reused or foreign worker would not echo this spawn's token and pid
    if (record["token"] != token or record["pid"] != proc.pid
            or record["passes_in_process"] != 1):
        raise BenchError("worker reuse detected")
    record.update(seed=seed, setup_s=setup_s, traced=trace)
    return record


def load_reference() -> dict:
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def count_failures(workload: str, passes: list[dict],
                   reference: dict) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, items checked against digests, first reasons)."""
    attempted = failed = checked = 0
    reasons: list[str] = []
    for rec in passes:
        n = len(rec["labels"])
        bad = {int(i): why for i, why in rec["problems"].items()}
        ref = reference.get(workload, {}).get(rec["seed"])
        if ref is not None:
            got = rec["digests"]
            step = len(got) // n
            if len(ref) != len(got):
                bad.update({i: "item count differs from reference"
                            for i in range(n)})
            else:
                checked += n
                for i in range(0, len(got), step):
                    if got[i:i + step] != ref[i:i + step]:
                        bad.setdefault(i // step,
                                       "digest differs from reference")
        attempted += n
        failed += len(bad)
        reasons += [f"pass {rec['seed']} item {i} ({rec['labels'][i]}): {why}"
                    for i, why in sorted(bad.items())][:5 - len(reasons)]
    return attempted, failed, checked, reasons


def scaled_latencies(rec: dict) -> list[float]:
    """Item latencies at reference machine speed: each is multiplied by
    PROBE_REF_S over the mean of the probes just before and after it."""
    probes = rec["probes"]
    out, k = [], 0
    for i, lat in enumerate(rec["latencies_s"]):
        while probes[k + 1][0] <= i:
            k += 1
        out.append(lat * 2 * PROBE_REF_S / (probes[k][1] + probes[k + 1][1]))
    return out


def end_to_end(passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """Latency percentiles over every item of the run; throughput and RSS
    as the mean over passes and set-up time as the median over passes,
    whichever gave the smaller spread between seeds.  Times are scaled to
    reference machine speed unless ``scaled`` is false."""
    lats = [scaled_latencies(r) if scaled else r["latencies_s"]
            for r in passes]
    pooled = [x for lat in lats for x in lat]
    return {
        "items_per_s": statistics.mean(len(lat) / sum(lat) for lat in lats),
        "item_p50_ms": statistics.median(pooled) * 1e3,
        "item_p90_ms": statistics.quantiles(pooled, n=10)[8] * 1e3,
        "setup_s": statistics.median(
            r["setup_s"] * (PROBE_REF_S / r["setup_probe_s"] if scaled else 1)
            for r in passes),
        "peak_rss_mb": statistics.mean(r["peak_rss_kb"] / 1024
                                       for r in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Medians over the traced passes; layer times are not scaled."""
    traced = [r for r in passes if r["traced"]]
    plain = [r for r in passes if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _ in tracer.metric_names()}
    out["setup.import_s"] = statistics.median(r["import_s"] for r in passes)
    out["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in passes)
    out["trace.overhead_ratio"] = (
        statistics.median(sum(scaled_latencies(r)) for r in traced)
        / statistics.median(sum(scaled_latencies(r)) for r in plain))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "whiskers", "__init__.py")):
        raise BenchError(f"no whiskers sources under {ROOT}/src")
    reference = load_reference() if scale == 1.0 else {}
    passes: list[dict] = []
    step_s: list[float] = []
    start = time.perf_counter()
    # start another step only if it is expected to end less than half a
    # step past the deadline, so that a run lasts about --seconds
    while not step_s or (time.perf_counter() - start
                         + statistics.median(step_s) / 2 < seconds):
        t = time.perf_counter()
        if trace:  # same inputs every time, alternately untraced and traced
            passes.append(spawn_pass(workload, f"{seed}:0", scale, False))
            passes.append(spawn_pass(workload, f"{seed}:0", scale, True))
        else:
            passes.append(spawn_pass(workload, f"{seed}:{len(step_s)}",
                                     scale, False))
        step_s.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start

    attempted, failed, checked, reasons = count_failures(workload, passes,
                                                         reference)
    unscaled = end_to_end([r for r in passes if not r["traced"]], False)
    if trace:
        values, units = per_layer(passes), dict(PER_LAYER)
    else:
        values, units = end_to_end(passes), dict(END_TO_END)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale, "passes": len(passes),
        "wall_s": wall_s, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "digest_checked": checked,
        "failure_examples": reasons,
        "items_per_pass": sorted({len(r["labels"]) for r in passes}),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "unscaled": unscaled,
        "machine_speed": statistics.median(
            PROBE_REF_S / p for r in passes for _, p in r["probes"]),
        "machine": {"python": platform.python_version(), "cpu": cpu_model(),
                    "nproc": os.cpu_count(), "hash_seed": HASH_SEED},
        "pass_records": [{k: rec[k] for k in (
            "seed", "traced", "setup_s", "setup_probe_s", "import_s",
            "inputs_s", "timed_s", "peak_rss_kb", "latencies_s", "probes")}
                         for rec in passes],
    }


def report(result: dict) -> None:
    m = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']} trace "
          f"{int(result['trace'])}: {result['passes']} passes in "
          f"{result['wall_s']:.1f} s; python {m['python']}, {m['cpu']}, "
          f"nproc {m['nproc']}, PYTHONHASHSEED={m['hash_seed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac {result['failed_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} items, "
          f"{result['digest_checked']} checked against reference digests)")
    print(f"  latency samples {result['attempted']} ({result['passes']} "
          f"passes of {result['items_per_pass']} items)")
    print(f"  times are scaled to a machine on which the probe takes "
          f"{PROBE_REF_S * 1e3:g} ms; this one ran at "
          f"{result['machine_speed']:.3f} of that speed (median); unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items()))
    if result["trace"]:
        top = max((k for k in result["metrics"] if k.endswith(".self_s")),
                  key=lambda k: result["metrics"][k]["value"])
        print(f"  top self time {top[:-len('.self_s')]} "
              f"{result['metrics'][top]['value']:.6g} s per pass")
    for line in result["failure_examples"]:
        print(f"  FAIL {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink item counts (smoke test only; disables "
                         "the reference digests)")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
