"""Command line entry point.

Usage:
    titrees <mode> <n_max> [m] [--threads T] [--output PATH]

The mode comes first and is one of -c/count (per-order census), -g/graph6,
-s/sparse6, -p/parent-list (one encoded tree per line) or verify (compare
generator output against the brute-force oracle).  n_max bounds the tree
order and the optional m bounds the maximum vertex degree.

Exit status: 0 success, 1 usage error, 2 verification mismatch, 3 I/O
failure, 130 interrupted.  A reader that closes the output pipe early
(``titrees -p 22 | head -1``) ends the run quietly with status 0; an
interrupt (Ctrl-C, SIGINT) ends it with status 130 and nothing on
standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import BinaryIO, Sequence

from .formats import graph6_line, parent_list_line, sparse6_line
from .generation import generate_ti_trees
from .oracle import MAX_ENUMERATION_ORDER, canonical_form, enumerate_free_trees, is_ti_graph

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_MISMATCH = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130

_MODE_ALIASES = {
    "-c": "count",
    "-g": "graph6",
    "-s": "sparse6",
    "-p": "parent-list",
    "--count": "count",
    "--graph6": "graph6",
    "--sparse6": "sparse6",
    "--parent-list": "parent-list",
}

_ENCODERS = {
    "graph6": graph6_line,
    "sparse6": sparse6_line,
    "parent-list": parent_list_line,
}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve that."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="titrees",
        description="Generate all transmission irregular trees up to a given order.",
    )
    parser.add_argument(
        "mode",
        choices=["count", "graph6", "sparse6", "parent-list", "verify"],
        help="count (-c), graph6 (-g), sparse6 (-s), parent-list (-p), or verify",
    )
    parser.add_argument("n_max", type=int, help="maximum tree order, >= 1")
    parser.add_argument(
        "m",
        type=int,
        nargs="?",
        default=None,
        help="maximum vertex degree, >= 2 (default: unbounded)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        # The CPUs this process may run on, which an affinity mask can
        # make fewer than the machine has.
        default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
        help="worker processes for phase 2 (default: available parallelism); verify runs serially",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write results to PATH instead of standard output",
    )
    return parser


def _run_verify(n_max: int, m: int | None, out: BinaryIO) -> int:
    """Compare canonical-form multisets of generator and oracle per order."""
    generated: dict[int, Counter] = {k: Counter() for k in range(1, n_max + 1)}

    def collect(parents: tuple[int, ...]) -> None:
        generated[len(parents)][canonical_form(parents)] += 1

    generate_ti_trees(n_max, m, collect)

    status = EXIT_OK
    for order in range(1, n_max + 1):
        expected: Counter = Counter()

        def check(parents: tuple[int, ...]) -> None:
            # A vertex's degree is its child count, plus one for its
            # parent unless it is the root; leaves never exceed m >= 2.
            if m is not None and any(k + (v > 0) > m for v, k in Counter(parents[1:]).items()):
                return
            if is_ti_graph(parents):
                expected[canonical_form(parents)] += 1

        enumerate_free_trees(order, check)
        if generated[order] == expected:
            out.write(f"order {order}: OK ({sum(expected.values())} trees)\n".encode())
        else:
            out.write(
                f"order {order}: MISMATCH (generator {sum(generated[order].values())}, "
                f"oracle {sum(expected.values())})\n".encode()
            )
            status = EXIT_VERIFY_MISMATCH
    return status


def _run(args: argparse.Namespace, out: BinaryIO) -> int:
    if args.mode == "verify":
        return _run_verify(args.n_max, args.m, out)

    if args.mode == "count":
        census = generate_ti_trees(args.n_max, args.m, workers=args.threads)
        for order, count in census.items():
            out.write(f"{order} {count}\n".encode())
        return EXIT_OK

    generate_ti_trees(args.n_max, args.m, out.write, workers=args.threads, encoder=_ENCODERS[args.mode])
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _MODE_ALIASES:
        argv[0] = _MODE_ALIASES[argv[0]]
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.n_max < 1:
        parser.error(f"n_max must be >= 1, got {args.n_max}")
    if args.m is not None and args.m < 2:
        parser.error(f"m must be >= 2, got {args.m}")
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.mode == "verify" and args.n_max > MAX_ENUMERATION_ORDER:
        parser.error(f"verify mode is limited to n_max <= {MAX_ENUMERATION_ORDER}")

    try:
        if args.output is not None:
            with open(args.output, "wb") as out:
                return _run(args, out)
        status = _run(args, sys.stdout.buffer)
        sys.stdout.buffer.flush()
        return status
    except BrokenPipeError:
        # The reader has gone; send the rest of the buffered output to
        # the null device so the interpreter's final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except OSError as exc:
        print(f"titrees: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
