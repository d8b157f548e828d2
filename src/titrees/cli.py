"""Command line entry point.

Usage:
    titrees <mode> <n_max> [m] [--threads T] [--output PATH]

The mode comes first and is one of count (per-order census), graph6,
sparse6, parent-list (one encoded tree per line) or verify (compare
generator output against the brute-force oracle).  Each mode but verify
is spelled as its word, as -x with x its first letter, or as --mode:
count, -c and --count are one mode.  n_max bounds the tree order and the
optional m bounds the maximum vertex degree.

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

_ENCODERS = {
    "graph6": graph6_line,
    "sparse6": sparse6_line,
    "parent-list": parent_list_line,
}
# Every mode, each but the last also spelled -x, x its first letter, and --mode.
_MODES = ["count", *_ENCODERS, "verify"]
_SPELLINGS = {spelling: mode for mode in _MODES[:-1] for spelling in (f"-{mode[0]}", f"--{mode}")}


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
        choices=_MODES,
        help=", ".join(f"{mode} (-{mode[0]})" for mode in _MODES[:-1]) + f", or {_MODES[-1]}",
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
        help="worker processes for phase 2 (default: available parallelism)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write results to PATH instead of standard output",
    )
    return parser


def _run_verify(n_max: int, m: int | None, workers: int, out: BinaryIO) -> int:
    """Compare canonical-form multisets of generator and oracle per order."""
    trees: list[tuple[int, ...]] = []
    generate_ti_trees(n_max, m, trees.append, workers=workers)

    status = EXIT_OK
    for order in range(1, n_max + 1):
        generated = Counter(canonical_form(parents) for parents in trees if len(parents) == order)
        # A vertex's degree is its child count, plus one for its parent
        # unless it is the root; leaves never exceed m >= 2.
        expected = Counter(
            canonical_form(parents)
            for parents in enumerate_free_trees(order)
            if (m is None or all(k + (v > 0) <= m for v, k in Counter(parents[1:]).items())) and is_ti_graph(parents)
        )
        if generated == expected:
            out.write(f"order {order}: OK ({sum(expected.values())} trees)\n".encode())
        else:
            out.write(
                f"order {order}: MISMATCH (generator {sum(generated.values())}, "
                f"oracle {sum(expected.values())})\n".encode()
            )
            status = EXIT_VERIFY_MISMATCH
    return status


def _run(args: argparse.Namespace, out: BinaryIO) -> int:
    if args.mode == "verify":
        return _run_verify(args.n_max, args.m, args.threads, out)

    # count is the one mode with no encoder, so its func is None and it writes the census instead.
    encoder = _ENCODERS.get(args.mode)
    census = generate_ti_trees(args.n_max, args.m, encoder and out.write, workers=args.threads, encoder=encoder)
    if encoder is None:
        out.writelines(f"{order} {count}\n".encode() for order, count in census.items())
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv:
        argv[0] = _SPELLINGS.get(argv[0], argv[0])
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
