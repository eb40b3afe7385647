"""Child process of the benchmark: one workload run or one set-up probe.

Usage: ``python3 harness.py REQUEST.json RESULT.json``.  The request names
the source tree to import edgrow from and what to do:

- ``{"mode": "run", "argv": [...], "trace": bool}`` imports edgrow, then
  times one ``edgrow.cli.main(argv)`` call in this process and counts its
  minor page faults.  With tracing on, spans are kept in memory and
  written to ``spans_path`` afterwards.
- ``{"mode": "setup", "kernel": spec, "k_max": int | null}`` times a fresh
  ``import edgrow.cli`` plus building the kernel and, when ``k_max`` is
  given, its chemical potential.

Each workload run gets a fresh interpreter, so caches and peak memory do
not carry over from one run to the next.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _import_edgrow(src: str):
    sys.path.insert(0, src)
    import edgrow.cli

    found = os.path.realpath(edgrow.__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"edgrow imported from {found}, not from {src}")
    return edgrow


def _own_peak_kib() -> int:
    """High-water RSS of this process's own address space (KiB).

    ``ru_maxrss`` would also include the parent's RSS: the kernel carries the
    high-water mark of the address space a child replaces at ``exec`` over
    into the child, and the parent process is much larger than this one.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child (MiB).

    Sweep workers are forked from this process and reaped when the pool
    closes, so ``RUSAGE_CHILDREN`` covers them.  Pages they share with this
    process are counted in both, as RSS counts them.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (_own_peak_kib() + children) / 1024.0


def run(request: dict) -> dict:
    edgrow = _import_edgrow(request["src"])
    tracer = None
    if request.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        exit_code = edgrow.cli.main(list(request["argv"]))
    except Exception:  # a crash is a failed run, reported with its traceback
        exit_code = None
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    # Sweep workers exist only during the call, so all of their faults count.
    faults = (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        - faults_before
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    )
    result = {
        "exit_code": exit_code,
        "wall_s": wall,
        "peak_rss_mib": _peak_rss_mib(),
        "minor_faults": faults,
    }
    if error is not None:
        result["error"] = error
    if tracer is not None:
        with open(request["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "cache_misses": tracer.cache_misses()}, fh)
    return result


def setup(request: dict) -> dict:
    start = time.perf_counter()
    edgrow = _import_edgrow(request["src"])
    kernel = edgrow.kernel_from_spec(request["kernel"])
    if request.get("k_max") is not None:
        edgrow.chemical_potential(kernel, int(request["k_max"]))
    return {"setup_s": time.perf_counter() - start}


def main(argv: list) -> int:
    request_path, result_path = argv
    with open(request_path, "r", encoding="utf-8") as fh:
        request = json.load(fh)
    result = run(request) if request["mode"] == "run" else setup(request)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
