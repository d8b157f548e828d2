"""Benchmark of the titrees CLI: end-to-end timed runs and a per-layer trace.

Run from the repository root (standard library only, nothing to install):

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the real CLI runs as a child process, one at a time,
for about ``--seconds`` seconds; every run passes the correctness gate
of ``workloads.py`` or counts as failed.  With ``--trace 1`` the same
command line runs in this process under ``layers.py``'s tracer instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (machine, provenance, samples, quartiles).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, check_output, command_line, trees_in

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Exactly what the ``titrees`` console script runs.
CLI_ENTRY = "import sys; from titrees.cli import main; sys.exit(main())"

MIN_SAMPLES = 3
# Set-up probes per workload sample: they are short, so more of them
# keep the set-up median steady.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "trees_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_cli(argv: list[str]) -> dict:
    """Run the CLI once as a child process and drain its output.

    Wall time runs from spawn until the child is reaped.  CPU time and
    peak RSS come from ``wait4``, which covers the child and every
    worker process it reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI_ENTRY, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        selector.register(proc.stderr, selectors.EVENT_READ)
        while selector.get_map():
            remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
            events = selector.select(timeout=max(remaining, 0.0))
            if not events:
                proc.kill()
                timed_out = True
                break
            for key, _ in events:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks[key.fd].append(chunk)
                else:
                    selector.unregister(key.fileobj)
    _, wait_status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return {
        "status": None if timed_out else proc.returncode,
        "out": out,
        "stderr": err.decode(errors="replace")[-400:],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def gated(workload: Workload, argv: list[str], n_max: int, failures: list[str]) -> dict:
    """One CLI run; a failed gate is appended to ``failures``."""
    run = run_cli(argv)
    if run["status"] is None:
        reason = f"no exit within {CHILD_TIMEOUT_S:.0f} s"
    else:
        reason = check_output(workload.mode, n_max, run["status"], run["out"])
    if reason is not None:
        failures.append(f"{' '.join(argv)}: {reason} {run['stderr']}".strip())
        run["trees"] = 0
    else:
        run["trees"] = trees_in(workload.mode, run["out"])
    del run["out"]
    return run


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def timed_run(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Alternate workload runs and set-up probes for about ``seconds``."""
    argv = command_line(workload, seed)
    setup_argv = command_line(workload, seed, n_max=1)
    failures: list[str] = []
    # Untimed warm-up: byte-compiling the package is a one-time cost
    # that users do not pay on every run.
    gated(workload, setup_argv, 1, failures)
    samples: list[dict] = []
    setups: list[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        samples.append(gated(workload, argv, workload.n_max, failures))
        setups.extend(gated(workload, setup_argv, 1, failures) for _ in range(SETUP_PROBES))
        now = time.perf_counter()
        if len(samples) >= MIN_SAMPLES and now - start + (now - began) > seconds:
            break

    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "trees_per_s": [s["trees"] / s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": [s["wall_s"] for s in setups],
    }
    attempted = 1 + len(samples) + len(setups)
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
            for name, values in series.items()
        },
    }
    detail = {
        "argv": argv,
        "setup_argv": setup_argv,
        "error_rate": failed / attempted,
        "trees": samples[0]["trees"],
        "failures": failures[:10],
        "summary": {name: summary(values) for name, values in series.items()},
    }
    return result, detail


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **git_state(),
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "titrees").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "titrees" / "cli.py").is_file():
        print(f"run.py: no titrees sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    if args.trace:
        import layers

        result, detail = layers.traced_run(workload, args.seed, args.seconds, SRC)
    else:
        result, detail = timed_run(workload, args.seed, args.seconds)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **detail,
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
