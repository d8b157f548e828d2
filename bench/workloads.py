"""Workloads of the titrees benchmark and the gate every run must pass.

A workload is one command line of the ``titrees`` CLI.  The generator's
only inputs are the mode, the order bound and the worker count, so the
seed cannot vary the work without changing its cost; it varies how the
same command line is spelled instead (mode alias and ``--threads``
form).  Every spelling must produce the same bytes, which the gate
checks against pinned digests.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# TI trees per order, the benchmark's own copy of the published census.
PINNED_CENSUS = {
    1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0, 9: 1, 10: 0,
    11: 6, 12: 0, 13: 24, 14: 1, 15: 82, 16: 10, 17: 324, 18: 47,
    19: 1574, 20: 165, 21: 6944, 22: 733, 23: 30913, 24: 2947,
    25: 143690, 26: 13357, 27: 702945, 28: 67685, 29: 3277565, 30: 302163,
}

# sha256 of the complete standard output, per (mode, n_max), recorded on
# the seed code.  The n_max = 1 entries gate the set-up probes.  Any
# thread count must reproduce these bytes.
DIGESTS = {
    ("count", 30): "ce2843915191fcbea6719a27d69dcd7270ab97322ee1d20a60e08cb2d94b5aa4",
    ("graph6", 24): "83187894a23b97de534a78f0a28f69919f96709978aa028ee7c3fb35b3a90d4f",
    ("sparse6", 24): "7465826b54899070d0d30276252579947598c788fba22b15b07f74b916b4fd56",
    ("count", 1): "3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5",
    ("graph6", 1): "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    ("sparse6", 1): "6c4edbbc42b4872ddfd517d4b5548029f0dea0bfedf494e1b88bdce0d262f782",
}

# Equivalent spellings the CLI accepts for each mode.
SPELLINGS = {
    "count": ("-c", "count", "--count"),
    "graph6": ("-g", "graph6", "--graph6"),
    "sparse6": ("-s", "sparse6", "--sparse6"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_max: int
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", "count", 30, 1),
        Workload("emit", "graph6", 24, 1),
        Workload("emit-par", "sparse6", 24, 2),
    )
}


def command_line(workload: Workload, seed: int, n_max: int | None = None) -> list[str]:
    """CLI arguments of ``workload`` as spelled for ``seed``.

    ``n_max`` overrides the workload's order, which the set-up probe uses
    to time the same command line with no generation work.
    """
    rng = random.Random(seed)
    mode = rng.choice(SPELLINGS[workload.mode])
    threads = rng.choice(
        (["--threads", str(workload.threads)], [f"--threads={workload.threads}"])
    )
    return [mode, str(workload.n_max if n_max is None else n_max), *threads]


def census_text(n_max: int) -> bytes:
    return "".join(f"{k} {PINNED_CENSUS[k]}\n" for k in range(1, n_max + 1)).encode()


def check_output(mode: str, n_max: int, status: int, out: bytes) -> str | None:
    """Why a run with this exit status and output failed, or None if it passed."""
    if status != 0:
        return f"exit status {status}"
    if mode == "count" and out != census_text(n_max):
        return "census differs from the pinned counts"
    return check_digest(mode, n_max, hashlib.sha256(out).hexdigest())


def check_digest(mode: str, n_max: int, digest: str) -> str | None:
    expected = DIGESTS.get((mode, n_max))
    if expected is not None and digest != expected:
        return f"sha256 {digest[:12]} differs from the reference {expected[:12]}"
    return None


def trees_in(mode: str, out: bytes) -> int:
    """Trees a passing run produced: the census total, or one per output line."""
    if mode == "count":
        return sum(int(line.split()[1]) for line in out.splitlines())
    return out.count(b"\n")
