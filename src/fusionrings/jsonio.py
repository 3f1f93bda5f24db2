"""Canonical JSON interchange for rings and partially specified rings.

Ring format::

    {"rank": 3, "labels": ["f0", "f1", "f2"], "unit": "f0",
     "dual": [["f0","f0"], ["f1","f1"], ["f2","f2"]],
     "tensor": [["f1","f1","f0",1], ...],        # absent triples mean 0
     "grading": {"orders": [2], "deg": [["f0",[0]], ["f1",[1]], ...]}}

Partial-ring format: same envelope, with "dims": [[label, float], ...] and a
"known" list replacing "tensor".  In "known", absent triples are *unknown*;
an explicit ["a","b","c",0] records a known zero.  "dual" is optional and
may list the pairs of only some labels.
"""

import json

import numpy as np

from .errors import MalformedRingError, RingFormatError
from .ring import FusionRing, Grading


def _check(cond, msg):
    if not cond:
        raise RingFormatError(msg)


def _is_int(x):
    # JSON true and false load as bool, a subclass of int; they are not integers
    return isinstance(x, int) and not isinstance(x, bool)


def _labels_and_unit(data):
    _check(isinstance(data, dict), "top-level JSON value must be an object")
    labels = data.get("labels")
    _check(isinstance(labels, list) and labels, "missing or empty 'labels'")
    _check(all(isinstance(l, str) for l in labels), "labels must be strings")
    _check(len(set(labels)) == len(labels), "labels must be distinct")
    if "rank" in data:
        _check(_is_int(data["rank"]) and data["rank"] == len(labels),
               "'rank' does not match labels")
    _check(data.get("unit") in labels, "missing 'unit' or unit not a label")
    index = {l: i for i, l in enumerate(labels)}
    return labels, index, index[data["unit"]]


def _dual_from(data, index):
    """The pairs in data["dual"] as a dict position -> position, holding
    both directions of each pair."""
    pairs = data.get("dual")
    _check(isinstance(pairs, list), "missing 'dual'")
    dual = {}
    for p in pairs:
        _check(isinstance(p, list) and len(p) == 2, "dual entries must be pairs")
        a, b = p
        _check(a in index and b in index, "dual pair mentions unknown label %r" % (p,))
        for x, y in ((a, b), (b, a)):
            _check(dual.setdefault(index[x], index[y]) == index[y], "conflicting duals for %r" % x)
    return dual


def grading_from_dict(data, labels, index):
    """The Grading in data["grading"] (None if absent), with degrees listed
    by label and reordered to ``labels``; index maps label -> position."""
    g = data.get("grading")
    if g is None:
        return None
    _check(isinstance(g, dict), "'grading' must be an object")
    orders = g.get("orders")
    _check(isinstance(orders, list) and all(_is_int(o) and o >= 1 for o in orders),
           "grading 'orders' must be positive ints")
    degmap = {}
    for entry in g.get("deg", []):
        _check(isinstance(entry, list) and len(entry) == 2, "deg entries must be pairs")
        lab, coords = entry
        _check(lab in index, "deg mentions unknown label %r" % lab)
        _check(isinstance(coords, list) and len(coords) == len(orders)
               and all(_is_int(c) for c in coords),
               "deg coordinates must match 'orders'")
        _check(degmap.setdefault(lab, coords) == coords, "conflicting degrees for %r" % lab)
    _check(set(degmap) == set(labels), "grading must assign a degree to every label")
    try:
        return Grading(orders, [degmap[l] for l in labels])
    except MalformedRingError as exc:  # an order past Grading's bound
        raise RingFormatError(str(exc)) from exc


def _entries_from(data, key, index):
    entries = data.get(key)
    _check(isinstance(entries, list), "missing %r" % key)
    out = {}
    for e in entries:
        _check(isinstance(e, list) and len(e) == 4, "%s entries must be [i,j,k,N]" % key)
        a, b, c, n = e
        _check(a in index and b in index and c in index,
               "%s entry mentions unknown label %r" % (key, e))
        _check(_is_int(n) and n >= 0, "coefficients must be nonnegative ints")
        ijk = (index[a], index[b], index[c])
        _check(out.setdefault(ijk, n) == n, "conflicting entries for %r" % (e[:3],))
    return out


def ring_from_dict(data):
    labels, index, unit = _labels_and_unit(data)
    rank = len(labels)
    dual = _dual_from(data, index)
    _check(len(dual) == rank, "dual must cover every label")
    dual = [dual[i] for i in range(rank)]
    grading = grading_from_dict(data, labels, index)
    entries = _entries_from(data, "tensor", index).items()
    try:
        ijkv = np.array([ijk + (n,) for ijk, n in entries], dtype=np.int64).reshape(-1, 4)
        return FusionRing.from_triples(labels, unit, dual, ijkv.T, grading)
    except Exception as exc:
        raise RingFormatError(str(exc)) from exc


def ring_to_dict(ring):
    labels = ring.labels
    data = {
        "rank": ring.rank,
        "labels": list(labels),
        "unit": labels[ring.unit],
        "dual": [[labels[i], labels[int(ring.dual[i])]] for i in range(ring.rank)],
        "tensor": [[labels[i], labels[j], labels[k], v] for i, j, k, v in ring.triples.T.tolist()],
    }
    if ring.grading is not None:
        data["grading"] = {
            "orders": list(ring.grading.orders),
            "deg": [list(entry) for entry in zip(labels, ring.grading.deg.tolist())],
        }
    return data


def partial_from_dict(data):
    from .solve import PartialRing

    labels, index, unit = _labels_and_unit(data)
    dual = None
    if data.get("dual") is not None:
        dual = _dual_from(data, index)
    grading = grading_from_dict(data, labels, index)
    _check(grading is not None, "partial rings require a 'grading'")
    dims = data.get("dims")
    _check(isinstance(dims, list), "missing 'dims'")
    dimmap = {}
    for entry in dims:
        _check(isinstance(entry, list) and len(entry) == 2, "dims entries must be pairs")
        lab, val = entry
        _check(lab in index, "dims mentions unknown label %r" % lab)
        _check(_is_int(val) or isinstance(val, float), "dims must be numbers")
        _check(lab not in dimmap or dimmap[lab] == val, "conflicting dims for %r" % lab)
        dimmap[lab] = val
    _check(set(dimmap) == set(labels), "dims must cover every label")
    known = _entries_from(data, "known", index)
    try:
        return PartialRing(
            labels=labels,
            unit=unit,
            dims=[float(dimmap[l]) for l in labels],
            grading=grading,
            dual=dual,
            known=known,
        )
    except (MalformedRingError, OverflowError) as exc:  # OverflowError: a dim past float
        raise RingFormatError(str(exc)) from exc


def partial_to_dict(partial):
    labels = partial.labels
    data = {
        "rank": len(labels),
        "labels": list(labels),
        "unit": labels[partial.unit],
        "dims": [[l, float(d)] for l, d in zip(labels, partial.dims)],
        "known": [
            [labels[i], labels[j], labels[k], int(n)]
            for (i, j, k), n in sorted(partial.known.items())
        ],
        "grading": {
            "orders": list(partial.grading.orders),
            "deg": [list(entry) for entry in zip(labels, partial.grading.deg.tolist())],
        },
    }
    if partial.dual is not None:
        data["dual"] = [[labels[i], labels[j]] for i, j in sorted(partial.dual.items())]
    return data


def load_ring(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RingFormatError("invalid JSON: %s" % exc) from exc
    return ring_from_dict(data)


def dump_ring(ring, path):
    with open(path, "w") as fh:
        json.dump(ring_to_dict(ring), fh, indent=1)
        fh.write("\n")


def load_partial(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RingFormatError("invalid JSON: %s" % exc) from exc
    return partial_from_dict(data)
