"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py <workload> <seed> <token> <scale> <trace 0|1>

The worker imports ``whiskers`` from the checkout's ``src``, generates the
pass's inputs, prints one ``READY`` line, runs every item back to back and
prints one ``RESULT`` line of JSON.  ``_hom_cache`` and ``_vd_memo`` inside
whiskers live for the whole process, so a pass is only cold in a process of
its own: ``run_pass`` refuses to run twice in one process.

Between items, at most every ``PROBE_GAP_S``, the worker times ``probe``, a
fixed loop that shares no code or data with whiskers.  On a shared host the
same pass ran anywhere from 1x to 1.6x its fastest time, in spells lasting
from a fraction of a second to minutes; ``run.py`` divides each item's
latency by the machine speed the probes around it saw.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from hashlib import sha256

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
DIGEST_HEX = 6
PROBE_GAP_S = 0.05

_passes_run = 0
_TABLE = list(range(4096))
_SQUARES = {i: i * i for i in range(1024)}


def probe() -> float:
    """Seconds taken by a fixed loop that allocates no objects the garbage
    collector tracks, so whatever the program keeps in memory does not
    change its work.  Best of three, so that an interrupt or a cache
    refill does not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, idx = 0, 1
        for _ in range(1500):
            idx = (idx * 1103515245 + 12345) & 4095
            acc += _TABLE[idx] + _SQUARES[idx & 1023]
        best = min(best, time.perf_counter() - start)
    return best


def digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def run_pass(workload: str, seed: str, token: str, scale: float,
             trace: bool) -> dict:
    global _passes_run
    _passes_run += 1
    if _passes_run > 1:
        raise RuntimeError("a worker process may run only one pass")

    setup_probe = probe()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import whiskers
    if not os.path.abspath(whiskers.__file__).startswith(SRC + os.sep):
        raise ImportError(f"whiskers imported from {whiskers.__file__}, "
                          f"not from {SRC}")
    import tracer
    import workloads
    t1 = time.perf_counter()
    make, check, describe = workloads.WORKLOADS[workload]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        items = make(seed, scale, workdir)
        t2 = time.perf_counter()
        setup_probe = (setup_probe + probe()) / 2
        print("READY " + json.dumps({"token": token}), flush=True)

        tr = tracer.Tracer() if trace else None
        if tr:
            tr.install()
        results, latencies, raised = [], [], {}
        clock = time.perf_counter
        probes = [(0, probe())]  # (index of the next item, probe seconds)
        last_probe = clock()
        start = clock()
        for i, item in enumerate(items):
            if clock() - last_probe > PROBE_GAP_S:
                probes.append((i, probe()))
                last_probe = clock()
            if tr:
                tr.run_id = f"{seed}/{i}"
            a = clock()
            try:
                results.append(item.call())
            except Exception as exc:  # counted as a failed item
                results.append(None)
                raised[i] = f"raised {type(exc).__name__}: {exc}"
            latencies.append(clock() - a)
        timed_s = clock() - start
        probes.append((len(items), probe()))
        if tr:
            tr.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        # the checks compare results with each other, so they run only
        # when no item raised
        problems = (check(items, results) if not raised
                    else [raised.get(i) for i in range(len(items))])
        digests = "".join(digest(describe(item, res)) if res is not None
                          else "-" * DIGEST_HEX
                          for item, res in zip(items, results))
        record = {
            "token": token, "pid": os.getpid(), "passes_in_process": _passes_run,
            "labels": [item.label for item in items],
            "latencies_s": latencies, "probes": probes, "timed_s": timed_s,
            "problems": {i: p for i, p in enumerate(problems) if p},
            "digests": digests, "peak_rss_kb": rss_kb,
            "import_s": t1 - t0, "inputs_s": t2 - t1,
            "setup_probe_s": setup_probe,
        }
        if tr:
            record["layers"] = tr.metrics()
            name = f"spans-{workload}-{seed.replace(':', '-')}.jsonl"
            tr.write(os.path.join(OUT, name))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> None:
    workload, seed, token, scale, trace = argv
    record = run_pass(workload, seed, token, float(scale), trace == "1")
    print("RESULT " + json.dumps(record), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
