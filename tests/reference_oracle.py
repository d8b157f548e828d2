"""References for ``titrees.oracle``: ``canonical_form`` and
``is_ti_graph`` as the oracle first computed them.

The canonical form is the transmission-rooted encoding: one
breadth-first search per vertex for the transmissions, the tree rooted
at its minimum-transmission vertices (one or two adjacent ones, the
centroid), and children sorted by (length, bytes).  Its byte strings
differ from the package's; ``tests/test_oracle.py`` checks that the two
split trees into the same isomorphism classes.  ``is_ti_graph`` searches
the vertices in label order, and must return what the package returns.
It carries its own search so that the two sides share no code.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def _neighbours(parents: Sequence[int]) -> list[list[int]]:
    neighbours: list[list[int]] = [[] for _ in parents]
    for x in range(1, len(parents)):
        neighbours[parents[x]].append(x)
        neighbours[x].append(parents[x])
    return neighbours


def _transmission(neighbours: list[list[int]], source: int) -> int:
    dist = [-1] * len(neighbours)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return sum(dist)


def _rooted_encoding(neighbours: list[list[int]], root: int) -> bytes:
    """Parenthesized encoding with children sorted by (subtree size, encoding)."""

    def encode(v: int, parent: int) -> bytes:
        subs = sorted(
            (encode(w, v) for w in neighbours[v] if w != parent),
            key=lambda e: (len(e), e),
        )
        return b"(" + b"".join(subs) + b")"

    return encode(root, -1)


def canonical_form(parents: Sequence[int]) -> bytes:
    """Byte string equal for two trees iff they are isomorphic, rooted at
    the minimum-transmission vertices, the smaller encoding of two."""
    neighbours = _neighbours(parents)
    tr = [_transmission(neighbours, v) for v in range(len(parents))]
    low = min(tr)
    return min(_rooted_encoding(neighbours, v) for v in range(len(parents)) if tr[v] == low)


def is_ti_graph(parents: Sequence[int]) -> bool:
    """True iff all vertex transmissions are pairwise distinct, searching
    the vertices in label order until two transmissions clash."""
    neighbours = _neighbours(parents)
    seen = set()
    for v in range(len(parents)):
        t = _transmission(neighbours, v)
        if t in seen:
            return False
        seen.add(t)
    return True
