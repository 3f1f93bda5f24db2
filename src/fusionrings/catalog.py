"""Brauer-Picard data for the adjoint ADE families, and extension counts.

The bimodule tables (identifiers, orders, actions on the invertible objects
of the centre) are transcribed data fixtures under data/, one JSON file per
family; they are inputs here, not computed.  This module attaches dimension
profiles to the bimodules, filters the cyclic homomorphisms that can carry a
sub-2 generator, and counts graded extensions per homomorphism as the order
of H^2(Z_M, Inv(Z(C))) with the induced action.

quantum_integer                  [m]_q = sin(m pi / k) / sin(pi / k)
bp_catalog                       the transcribed table entry for one family
admissible_generator_bimodules   bimodules able to host a generator of dim < 2
extension_count                  (hom, M-constraint, count) triples
"""

import json
import math
import os
from functools import lru_cache

import numpy as np

from .abelian import FiniteAbelianGroup
from .cohomology import GroupAction, h_cyclic
from .errors import UnknownFamilyError, as_integer
from .graphs import bipartition, dynkin, perron_vector

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_TOL = 1e-6


def quantum_integer(m, k):
    """The quantum integer [m]_q = sin(m pi/k)/sin(pi/k) for q = e^(i pi/k).

    >>> round(quantum_integer(2, 4), 6)   # [2] at q = e^(i pi/4)
    1.414214
    """
    return math.sin(m * math.pi / k) / math.sin(math.pi / k)


def _load_family(family):
    path = os.path.join(_DATA_DIR, "%s.json" % family)
    if not os.path.exists(path):
        raise UnknownFamilyError("no catalog data for family %r" % (family,))
    with open(path) as fh:
        return json.load(fh)


def _case_key(family, size):
    if family == "adA":
        if size is None or size < 2:
            raise UnknownFamilyError("adA needs a size N >= 2")
        if size in (3, 7):
            return str(size)
        if size % 2 == 0:
            return "0mod2"
        return "1mod4" if size % 4 == 1 else "3mod4"
    if family == "adD":
        if size is None or size < 4 or size % 2:
            raise UnknownFamilyError("adD needs an even size 2N >= 4")
        return str(size) if size in (4, 10) else "generic"
    if family in ("adE6", "adE8"):
        if size not in (None, 6, 8):
            raise UnknownFamilyError("%s has no free size" % family)
        return "generic"
    raise UnknownFamilyError("unknown family %r" % (family,))


@lru_cache(maxsize=None)
def _halves(graph):
    # a Dynkin graph's Perron vector with node 0 at 1, split by bipartition
    # into node 0's side ("even") and the other ("odd"); cached, as the power
    # iteration costs milliseconds and every bp_catalog call asks again
    adj = dynkin(*graph)
    v = perron_vector(adj)
    color = np.array(bipartition(adj))
    halves = v[color == 0] / v[0], v[color == 1] / v[0]
    for half in halves:
        half.setflags(write=False)
    return halves


def _profiles(family, size):
    # each bimodule type's dimensions are one half of a Dynkin graph's Perron
    # vector, scaled to the identity bimodule's total squared dimension: that
    # of the even half of the family's own graph
    own = {"adA": ("A", size), "adD": ("D", size), "adE6": ("E6",), "adE8": ("E8",)}[family]
    graphs = {"E" if own[0] in ("E6", "E8") else own[0]: own}
    if family == "adA" and size % 4 == 3 and size > 3:
        graphs["D5" if size == 7 else "D"] = ("D", (size + 3) // 2)
    if family == "adD" and size == 10:
        graphs["E7"] = graphs["E7bar"] = ("E7",)
    even = _halves(own)[0]
    total = float(even @ even)
    prof = {}
    for name, graph in graphs.items():
        for side, half in zip(("even", "odd"), _halves(graph)):
            prof["%s_%s" % (name, side)] = list(half * math.sqrt(total / (half @ half)))
    return prof


def _base_type(bimodule_id):
    return bimodule_id.split(":")[-1]


def _action_matrix(spec):
    if spec is None:
        return None
    if spec == "swap":
        return [[0, 1], [1, 0]]
    return [[int(x) for x in row] for row in spec]


class BimoduleRecord:
    def __init__(self, id, order, dims, action=None):
        self.id = id
        self.order = int(order)
        self.dims = sorted(float(d) for d in dims)
        self.action = action

    def __repr__(self):
        return "BimoduleRecord(%r, order=%d)" % (self.id, self.order)


class BPCatalogEntry:
    """Transcribed Brauer-Picard data for one adjoint ADE family.

    bimodules carry identifier, order, full dimension profile, and (when
    non-trivial) the action on Inv(Z(C)); inv_centre is that group.
    """

    def __init__(self, family, size, case, data, profiles):
        self.family = family
        self.size = size
        self.case = case
        self.brauer_picard = data["brauer_picard"]
        self.exponent = int(data["exponent"])
        self.inv_centre = FiniteAbelianGroup(tuple(data["inv_centre"]))
        actions = data.get("actions", {})
        self.bimodules = [
            BimoduleRecord(bid, order, profiles[_base_type(bid)],
                           _action_matrix(actions.get(bid)))
            for bid, order in data["bimodules"]
        ]
        self.homs = [dict(h) for h in data["homs"]]
        self.hom_candidates = list(data.get("hom_candidates", []))
        self._by_id = {b.id: b for b in self.bimodules}

    def bimodule(self, bimodule_id):
        return self._by_id[bimodule_id]

    def __repr__(self):
        return "BPCatalogEntry(%s, size=%s, %d bimodules, BrPic=%s)" % (
            self.family, self.size, len(self.bimodules), self.brauer_picard)


def bp_catalog(family, size=None):
    """The Brauer-Picard table entry for an adjoint ADE family.

    >>> bp_catalog("adA", 7).brauer_picard
    'D_8'
    >>> [b.order for b in bp_catalog("adA", 7).bimodules]
    [1, 2, 2, 2, 2, 4, 4, 2]
    """
    case = _case_key(family, size)
    data = _load_family(family)["cases"][case]
    return BPCatalogEntry(family, size, case, data, _profiles(family, size))


def _generated_fpdim(d):
    # FP dim of the subfamily a dim-d object can generate, when that
    # subfamily is forced: sqrt(2) gives a pointed Z_2 piece, the golden
    # ratio a Fibonacci piece; otherwise no bound (full generation possible)
    if abs(d - math.sqrt(2.0)) < _TOL:
        return 2.0
    if abs(d - _GOLDEN) < _TOL:
        return 1.0 + _GOLDEN * _GOLDEN
    return None


def admissible_generator_bimodules(family, size=None):
    """Bimodules whose profile can host a sub-2 generator of the extension.

    A bimodule qualifies when some entry of its dimension profile lies in
    the open interval (1, 2) and is not forced to generate a proper
    subfamily: entries of dimension sqrt(2) or (1+sqrt(5))/2 only generate
    pointed or Fibonacci pieces, which disqualifies them unless that piece
    is the whole adjoint ring.
    """
    entry = bp_catalog(family, size)
    identity = entry.bimodules[0]
    fp0 = sum(d * d for d in identity.dims)
    out = []
    for bim in entry.bimodules:
        ok = False
        for d in bim.dims:
            if not (1.0 + _TOL < d < 2.0 - _TOL):
                continue
            g = _generated_fpdim(d)
            if g is None or abs(g - fp0) < 1e-4:
                ok = True
                break
        if ok:
            out.append(bim.id)
    return out


def _fold_negation(count):
    # orbits of c -> -c on a cyclic H^2 of that order
    return count // 2 + 1


def extension_count(family, size=None, M=1):
    """Graded-extension counts per admissible homomorphism Z_M -> BrPic.

    Returns (homomorphism, M-constraint, count) triples.  The constraint
    is divisibility of M by the order of the image bimodule; when it holds
    the count is |H^2(Z_M, Inv(Z(C)))| with the action induced by the
    image, folded along cocycle negation where a tensor auto-equivalence
    identifies mirror classes.

    >>> extension_count("adE6", M=2)
    [('1 -> E_odd', '2 | M', 2)]
    >>> extension_count("adE6", M=3)
    [('1 -> E_odd', '2 | M', 0)]
    """
    M = as_integer(M, ValueError)
    if M < 1:
        raise ValueError("M must be >= 1")
    entry = bp_catalog(family, size)
    out = []
    for hom in entry.homs:
        bim = entry.bimodule(hom["bimodule"])
        constraint = "any M" if bim.order == 1 else "%d | M" % bim.order
        if M % bim.order:
            out.append((hom["hom"], constraint, 0))
            continue
        if bim.action is None:
            action = None
        else:
            action = GroupAction(M, bim.action)
        count = h_cyclic(2, M, entry.inv_centre, action).order
        if hom.get("cocycle_fold") == "negation":
            count = _fold_negation(count)
        out.append((hom["hom"], constraint, count))
    return out
