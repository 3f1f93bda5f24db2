"""Multiplicity-weighted digraphs, isomorphism testing, DOT export,
Perron vectors and bipartitions, and the ADE Dynkin graphs used as
generator fusion graphs.
"""

import numpy as np

from . import config
from .errors import MalformedRingError, NonConvergenceError


class Digraph:
    """Directed graph on nodes 0..n-1 with positive integer edge
    multiplicities, stored as a dict (u, v) -> multiplicity."""

    def __init__(self, n, edges=None):
        self.n = int(n)
        self.edges = {}
        if edges:
            for (u, v), m in dict(edges).items():
                m = int(m)
                if m < 1:
                    raise ValueError("edge multiplicities must be >= 1")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError("edge endpoint out of range")
                self.edges[(int(u), int(v))] = m

    @classmethod
    def from_adjacency(cls, a):
        a = np.asarray(a)
        n = a.shape[0]
        edges = {}
        for u in range(n):
            for v in range(n):
                if a[u, v]:
                    edges[(u, v)] = int(a[u, v])
        return cls(n, edges)

    @classmethod
    def from_edge_list(cls, n, pairs):
        """Build from a list of (u, v) pairs; repeats add multiplicity."""
        edges = {}
        for u, v in pairs:
            edges[(u, v)] = edges.get((u, v), 0) + 1
        return cls(n, edges)

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for (u, v), m in self.edges.items():
            a[u, v] = m
        return a

    @property
    def edge_count(self):
        """Total multiplicity."""
        return sum(self.edges.values())

    def to_dot(self, labels=None, name="fusion"):
        """DOT serialization, one edge line per unit of multiplicity."""
        if labels is None:
            labels = [str(i) for i in range(self.n)]
        lines = ["digraph %s {" % name]
        for i in range(self.n):
            lines.append('  "%s";' % labels[i])
        for (u, v) in sorted(self.edges):
            for _ in range(self.edges[(u, v)]):
                lines.append('  "%s" -> "%s";' % (labels[u], labels[v]))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Digraph(n=%d, edges=%d)" % (self.n, self.edge_count)


def _refine_colors(a):
    """Iterated degree refinement; returns a stable color id per node."""
    n = a.shape[0]
    colors = [0] * n
    # initial color: multiset of out- and in-multiplicities
    init = [
        (tuple(sorted(a[i, a[i] > 0])), tuple(sorted(a[a[:, i] > 0, i])))
        for i in range(n)
    ]
    palette = {}
    for i in range(n):
        colors[i] = palette.setdefault(init[i], len(palette))
    while True:
        sig = []
        for i in range(n):
            outs = tuple(sorted((int(a[i, j]), colors[j]) for j in range(n) if a[i, j]))
            ins = tuple(sorted((int(a[j, i]), colors[j]) for j in range(n) if a[j, i]))
            sig.append((colors[i], outs, ins))
        palette = {}
        new = [palette.setdefault(s, len(palette)) for s in sig]
        if new == colors:
            return colors
        colors = new


def _refine_pair(a, b):
    """Refine both graphs against the shared palette of their disjoint union,
    so equal color ids mean equal refinement signatures across graphs."""
    n = a.shape[0]
    union = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    union[:n, :n] = a
    union[n:, n:] = b
    colors = _refine_colors(union)
    return colors[:n], colors[n:]


def digraph_iso(g, h):
    """Multiplicity-preserving digraph isomorphism (boolean).

    Backtracking with color refinement pruning; exact on the graph sizes that
    occur here (a couple of dozen nodes).
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    a, b = g.adjacency(), h.adjacency()
    ca, cb = _refine_pair(a, b)
    if sorted(ca) != sorted(cb):
        return False
    n = g.n
    # candidates by color; map rarest colors first
    by_color_b = {}
    for j in range(n):
        by_color_b.setdefault(cb[j], []).append(j)
    order = sorted(range(n), key=lambda i: (len(by_color_b.get(ca[i], ())), ca[i], i))
    mapping = [-1] * n
    used = [False] * n

    def extend(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in by_color_b.get(ca[i], ()):
            if used[j]:
                continue
            ok = True
            for k in range(pos):
                i2 = order[k]
                j2 = mapping[i2]
                if a[i, i2] != b[j, j2] or a[i2, i] != b[j2, j]:
                    ok = False
                    break
            if ok and a[i, i] == b[j, j]:
                mapping[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return extend(0)


def perron_vector(a):
    """The Perron vector of a nonnegative irreducible matrix, max entry 1.

    Power iteration on a + I (the shift makes bipartite graphs converge)
    until successive iterates differ by less than config.CONVERGENCE_TOL;
    raises NonConvergenceError if they never do.
    """
    a = np.asarray(a, dtype=np.float64)
    shifted = a + np.eye(a.shape[0])
    v = np.ones(a.shape[0])
    for _ in range(200000):
        w = shifted @ v
        w /= w.max()
        if np.max(np.abs(w - v)) < config.CONVERGENCE_TOL:
            return w
        v = w
    raise NonConvergenceError("Perron iteration did not converge")


def bipartition(adj):
    """Two-colouring of a connected graph from node 0, or None if it has an
    odd cycle; raises MalformedRingError if the graph is disconnected."""
    n = adj.shape[0]
    color = [-1] * n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in np.flatnonzero(adj[u]):
            w = int(w)
            if color[w] == -1:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return None
    if any(c == -1 for c in color):
        raise MalformedRingError("generator graph must be connected")
    return color


def dynkin(family, n=None):
    """Adjacency matrix of a Dynkin graph (simply laced).

    Node conventions (node 0 is the long-leg end used as a ring unit):
      A_n : path 0 - 1 - ... - (n-1)
      D_n : path 0 - ... - (n-3), with both n-2 and n-1 attached to n-3
      E_6 : path 0 - 1 - 2 - 3 - 4, with 5 attached to 2
      E_7 : path 0 - 1 - 2 - 3 - 4 - 5, with 6 attached to 3
      E_8 : path 0 - 1 - 2 - 3 - 4 - 5 - 6, with 7 attached to 4
    """
    family = family.upper()
    if family == "A":
        if n is None or n < 1:
            raise ValueError("A_n needs n >= 1")
        size = n
        extra = []
    elif family == "D":
        if n is None or n < 4:
            raise ValueError("D_n needs n >= 4")
        size = n
        extra = [(n - 3, n - 2), (n - 3, n - 1)]
    elif family in ("E6", "E7", "E8"):
        size = int(family[1])
        branch = {"E6": 2, "E7": 3, "E8": 4}[family]
        extra = [(branch, size - 1)]
    else:
        raise ValueError("unknown Dynkin family %r" % family)
    a = np.zeros((size, size), dtype=np.int64)
    chain = size - 1 if family in ("E6", "E7", "E8") else (size - 2 if family == "D" else size)
    for i in range(chain - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    for u, v in extra:
        a[u, v] = a[v, u] = 1
    return a
