"""Multiplicity-weighted digraphs, DOT export, Perron vectors and
bipartitions, the ADE Dynkin graphs used as generator fusion graphs, the
one exact isomorphism search on integer tensors (``isomorphisms``), which
``digraph_iso`` and ``ring.find_isomorphisms`` wrap and from which
``automorphism_generators`` builds a strong generating set of a tensor's
symmetries for the solver, and the one closure
routine (``components``), which generated subrings, grading components,
quotient subgroups and the solver's Frobenius orbits are read from, and
``unique_rows``, which numbers colour signatures and degree vectors.
"""

import numpy as np

from . import config
from .errors import MalformedRingError, NonConvergenceError, as_integer


class Digraph:
    """Directed graph on nodes 0..n-1 with positive integer edge
    multiplicities, stored as a dict (u, v) -> multiplicity."""

    def __init__(self, n, edges=None):
        self.n = as_integer(n, ValueError)
        self.edges = {}
        if edges:
            for (u, v), m in dict(edges).items():
                u, v, m = (as_integer(x, ValueError) for x in (u, v, m))
                if m < 1:
                    raise ValueError("edge multiplicities must be >= 1")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError("edge endpoint out of range")
                self.edges[(u, v)] = m

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

    def to_dot(self, labels=None):
        """DOT serialization, one edge line per unit of multiplicity."""
        if labels is None:
            labels = [str(i) for i in range(self.n)]
        lines = ["digraph fusion {"]
        for i in range(self.n):
            lines.append('  "%s";' % labels[i])
        for (u, v) in sorted(self.edges):
            for _ in range(self.edges[(u, v)]):
                lines.append('  "%s" -> "%s";' % (labels[u], labels[v]))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Digraph(n=%d, edges=%d)" % (self.n, self.edge_count)


def components(n, src, dst):
    """The least node of each node's connected component.

    The graph has nodes 0..n-1 and one undirected edge src[e] -- dst[e] per
    e; isolated nodes, self-loops and repeated edges are allowed.  Every
    node starts labelled by itself; each round lowers both ends of every
    edge to the smaller of their labels and then each label to its own
    label's label, until no label changes.  A label is always a node of the
    same component, so at the fixed point it is the component's least node.

    >>> components(6, [0, 3, 4], [2, 4, 5]).tolist()
    [0, 1, 0, 3, 3, 3]
    """
    src = np.asarray(src, dtype=np.intp).ravel()
    dst = np.asarray(dst, dtype=np.intp).ravel()
    label = np.arange(n)
    while True:
        low = np.minimum(label[src], label[dst])
        new = label.copy()
        np.minimum.at(new, src, low)
        np.minimum.at(new, dst, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def unique_rows(a):
    """The distinct rows of a 2-d integer array in lexicographic order, and
    each row's index among them (np.unique(a, axis=0, return_inverse=True),
    by one lexsort and the differences of the sorted rows)."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return rows[new], inverse


def refine(a, b, ca, cb):
    """Joint colour refinement of two n x n integer matrices.

    ca and cb are start colours (sortable values) of the nodes of a and b.
    A node's next colour is its colour plus its total out-weight and
    in-weight into each colour class.  Colours are numbered by sorting these
    signatures, so they do not depend on labels and mean the same in both
    matrices.  Stops when no class splits; returns two lists of ints.
    """
    n = len(ca)
    number = {c: x for x, c in enumerate(sorted(set(ca) | set(cb)))}
    colors = np.array([number[c] for c in list(ca) + list(cb)], dtype=np.int64)
    m = np.zeros((2 * n, 2 * n), dtype=np.int64)
    m[:n, :n] = a
    m[n:, n:] = b
    count = len(number)
    while True:
        onehot = np.eye(count, dtype=np.int64)[colors]
        sig = np.hstack([colors[:, None], m @ onehot, m.T @ onehot])
        classes, new = unique_rows(sig)
        if len(classes) == count:
            return colors[:n].tolist(), colors[n:].tolist()
        colors, count = new, len(classes)


def isomorphisms(ta, tb, ca, cb, max_count=None):
    """All index bijections s with tb[s(i), s(j), ...] = ta[i, j, ...].

    ta and tb are integer tensors of one shape (n, ..., n); ca and cb are
    start colours of their indices, which every bijection preserves.
    Candidate images come from refine on each tensor summed down to an
    n x n matrix.  The search maps one index at a time, rarest colour
    first, and compares every entry among the indices mapped so far.
    Returns the bijections as sorted tuples, at most max_count of them.
    """
    ta, tb = np.asarray(ta), np.asarray(tb)
    if ta.shape != tb.shape:
        return []
    n, d = ta.shape[0], ta.ndim
    lead = tuple(range(d - 2))
    ca, cb = refine(ta.sum(axis=lead), tb.sum(axis=lead), ca, cb)
    if sorted(ca) != sorted(cb):
        return []
    by_color = {}
    for j in range(n):
        by_color.setdefault(cb[j], []).append(j)
    pa = np.array(sorted(range(n), key=lambda i: (len(by_color[ca[i]]), ca[i], i)),
                  dtype=np.intp)
    pb = np.empty(n, dtype=np.intp)
    used = [False] * n
    found = []

    def agrees(p, i, j):
        ia, ib = np.ix_(*[pa[:p + 1]] * (d - 1)), np.ix_(*[pb[:p + 1]] * (d - 1))
        for axis in range(d):
            at = (slice(None),) * axis
            if not np.array_equal(ta[at + (i,)][ia], tb[at + (j,)][ib]):
                return False
        return True

    def extend(p):
        if p == n:
            images = np.empty(n, dtype=np.intp)
            images[pa] = pb
            found.append(tuple(images.tolist()))
            return
        i = int(pa[p])
        for j in by_color[ca[i]]:
            if max_count is not None and len(found) >= max_count:
                return
            if used[j]:
                continue
            pb[p] = j
            if agrees(p, i, j):
                used[j] = True
                extend(p + 1)
                used[j] = False

    extend(0)
    return sorted(found)


def automorphism_generators(t, c):
    """Generators of the group of index permutations s that fix the integer
    tensor t, t[s(i), s(j), ...] = t[i, j, ...], and the start colours c.

    The group is never enumerated.  One individualise-and-refine path picks
    the base b_0, b_1, ...: refine the colouring, give the least index of
    its smallest non-singleton cell a colour of its own, and repeat until
    the colouring is discrete.  Then, from the deepest level to the first,
    each index x of b_l's cell on the path that the generators found so far
    do not map b_l to gets one isomorphisms search from the colouring with
    b_0..b_l individualised to the one with b_0..b_{l-1}, x individualised;
    the map it finds, if any, is kept.  The generators found by level l
    generate the stabiliser of b_0..b_{l-1}, so they form a strong
    generating set, and the group's order is the product of the base
    points' orbit sizes.  Returns the generators as image tuples.
    """
    t = np.asarray(t)
    n = t.shape[0]
    m = t.sum(axis=tuple(range(t.ndim - 2)))

    def individualised(points):
        at = {x: p for p, x in enumerate(points)}
        return [(c[i], at.get(i, -1)) for i in range(n)]

    base, cells = [], []
    while True:
        start = individualised(base)
        colors = refine(m, m, start, start)[0]
        by_color = {}
        for i, x in enumerate(colors):
            by_color.setdefault(x, []).append(i)
        open_cells = [cell for cell in by_color.values() if len(cell) > 1]
        if not open_cells:
            break
        cell = min(open_cells, key=len)
        base.append(cell[0])
        cells.append(cell)

    gens = []
    for level in range(len(base) - 1, -1, -1):
        b, prefix = base[level], base[:level]
        orbit = {b}
        for x in cells[level]:
            if x in orbit:
                continue
            found = isomorphisms(t, t, individualised(prefix + [b]),
                                 individualised(prefix + [x]), max_count=1)
            if found:
                gens.append(found[0])
                label = components(n, np.tile(np.arange(n), len(gens)), gens)
                orbit = set(np.flatnonzero(label == label[b]).tolist())
    return gens


def digraph_iso(g, h):
    """Multiplicity-preserving digraph isomorphism (boolean), exact.

    Self-loop multiplicities are the start colours of isomorphisms.
    """
    if g.n != h.n:
        return False
    a, b = g.adjacency(), h.adjacency()
    return bool(isomorphisms(a, b, np.diag(a).tolist(), np.diag(b).tolist(), max_count=1))


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
