"""Level-indexed direct systems of extensions and their escape
certificates.

Three systems, each a chain of level modules with an injective
equivariant connecting map determined by a distinguished vector in the
next-level induced module:

  F: scalar line (weight lam) over M_i(mu), Borel-equivariant; the
     connecting vector is a weighted sum over shifted unipotent cosets.
  H: trivial line over M_i(theta); the connecting vector is the full
     group average of a fresh big-cell vector, hence group-invariant.
  L: alternating-generator span (Steinberg piece) over M_i(theta); the
     connecting vector satisfies the same reflection relations as the
     alternating generator itself.

At every finite level the action is the literal direct-sum action; what
the certificates record is that the connecting vector escapes the
relevant invariant subspace, which is the finite shadow of the limit
extension being nonsplit.

An element of a level object is one sparse dict, the row the echelon
form reads: the top at keys (0, k), where the line of F and H is (0, 0)
and L's Steinberg span keeps the trivial module's labels, and the
bottom at keys (1, label).  A group element acts by two monomial label
maps, one per side, and ``connect`` is one path for every system: the
labels embed, and each top coordinate a at x adds a u(x).conn, which
the system shifts once per x (F and H have the one coordinate at x = 0).

Vectors hold raw reps (see ``indmod``), and so do character values.
The builders below write a character's values into a vector, and
``check_borel_weight`` scales by them: each checks once that the
character's field is the module's field.  A system takes its field from
its characters, and so do its elements' raw reps.  Tower
elements (labels, torus values, the escape elements a and b) cross in
and out as raw values and are computed with the tower's raw ops (see
``tower``, whose operator class is the tests' front only).
"""

from __future__ import annotations

import math

from . import grp
from .charmod import TorusCharacter, nu_character
from .coeff import require_field
from .grp import GroupElement, unip, torus
from .indmod import InducedModule, Vec
from .linalg import SparseSpan, _acc
from .tower import Tower


CENTER_MISMATCH = (
    "center mismatch: the two characters differ at -1, the derived "
    "character is not defined on the central quotient"
)


class CenterMismatchError(ValueError):
    pass


def _require_center_match(lam: TorusCharacter, mu: TorusCharacter):
    if not nu_character(lam, mu).is_trivial_on_center():
        raise CenterMismatchError(CENTER_MISMATCH)


# -- connecting vectors ------------------------------------------------------


def shifted_cosets(tw: Tower, i: int, a: int):
    """For each central-quotient representative t at level i, the pair
    (t, labels of the unipotent coset a t^2 + level i)."""
    low = tw.enumerate_level(i)
    for t in grp.center_quotient_reps(tw, i):
        shift = tw._mul(a, tw._mul(t, t))
        yield t, [tw._add(shift, u) for u in low]


def borel_average(chi: TorusCharacter, i: int, mod_next: InducedModule,
                  a: int) -> Vec:
    """sum_t chi(t)^-1 (sum_u cell(a t^2 + u)) in mod_next, over the
    shifted cosets of level i."""
    field = mod_next.field
    require_field(field, chi.field)
    tw = mod_next.tower
    add, zero = field._add, field.zero
    out: dict = {}
    for t, labels in shifted_cosets(tw, i, a):
        c = chi.eval(tw._inv(t))
        for label in labels:
            _acc(out, label, c, add, zero)
    return Vec(mod_next, out)


def borel_weight_vector(lam: TorusCharacter, mu: TorusCharacter, i: int,
                        mod_next: InducedModule) -> Vec:
    """The weight-lam vector sum_t nu(t)^-1 (sum_{u} cell(a t^2 + u)) in
    M_{i+1}(mu); t runs over central-quotient representatives at level i,
    u over level i, and a is the first level-(i+1) element outside level i."""
    _require_center_match(lam, mu)
    a = mod_next.tower.first_outside_subfield(i)
    return borel_average(nu_character(lam, mu), i, mod_next, a)


def check_borel_weight(eta: Vec, lam: TorusCharacter, i: int) -> bool:
    """Fixed by the level-i unipotents, and h(t) scales by lam(t) for every
    level-i torus value.  The elements b with b.eta = lam(b) eta form a
    subgroup, so the test runs on the unipotent generators and h(g_i)."""
    mod = eta.module
    require_field(mod.field, lam.field)
    tw = mod.tower
    g = tw.generator(i)
    return (all(mod.act(u, eta) == eta for u in grp.unipotent_generators(tw, i))
            and mod.act(torus(tw, g), eta) == eta.scale(lam.eval(g)))


def _quadratic_free_element(theta: TorusCharacter, i: int, tw: Tower) -> int:
    """b, the first level-(i+1) element with no quadratic relation over
    level i; theta must be trivial on the center."""
    if not theta.is_trivial_on_center():
        raise CenterMismatchError("the character must be trivial on the center")
    if i < 2:
        raise ValueError("no quadratic-free element exists below level 2")
    return tw.first_outside_double_subfield(i)


def group_average_vector(theta: TorusCharacter, i: int, mod_next: InducedModule) -> Vec:
    """The group average of cell(b) over the level-i group (central
    quotient), b the first level-(i+1) element with no quadratic relation
    over level i.  Built through the Bruhat split: Borel part plus
    unipotent-shifted reflection of it."""
    tw = mod_next.tower
    b = _quadratic_free_element(theta, i, tw)
    first = borel_average(theta, i, mod_next, b)
    reflected = mod_next.weyl_action(first)
    out = first
    for x in tw.enumerate_level(i):
        out = out + mod_next.act(unip(tw, x), reflected)
    return out


def naive_group_average(i: int, mod_next: InducedModule, b: int) -> Vec:
    """Same vector as a literal sum over the enumerated group; cross-check."""
    tw = mod_next.tower
    base = mod_next.basis_vector(b)
    out = mod_next.zero()
    for g in grp.enumerate_subgroup(tw, "G", i, pgl=True):
        out = out + mod_next.act(g, base)
    return out


def steinberg_weight_vector(theta: TorusCharacter, i: int, mod_next: InducedModule) -> Vec:
    """(1 - s) applied to the Borel average of cell(b), b as in
    ``group_average_vector``: the expansion has one positive term
    cell(b t^2 + u) and one negative term at the reflected label, all
    2 * |T/±| * q^{i!} labels pairwise distinct."""
    tw, field = mod_next.tower, mod_next.field
    b = _quadratic_free_element(theta, i, tw)
    require_field(field, theta.field)
    add, sub, mul, zero = field._add, field._sub, field._mul, field.zero
    neg, inv = tw._neg, tw._inv
    out: dict = {}
    for t, labels in shifted_cosets(tw, i, b):
        cpos = theta.eval(inv(t))
        for label in labels:
            _acc(out, label, cpos, add, zero)
            cneg = mul(cpos, theta.eval(label))
            _acc(out, neg(inv(label)), sub(zero, cneg), add, zero)
    return Vec(mod_next, out)


def expansion_support(tw: Tower, i: int, b: int) -> dict:
    """Support diagnostics for the (1 - s)-expansion with an arbitrary b:
    label list, collision count, and degenerate (uninvertible) terms.
    Negative controls feed subfield elements through here."""
    labels = []
    degenerate = 0
    for _, coset in shifted_cosets(tw, i, b):
        for label in coset:
            labels.append(label)
            if label == 0:
                degenerate += 1
                continue
            labels.append(tw._neg(tw._inv(label)))
    collisions = len(labels) - len(set(labels))
    return {
        "terms": len(labels),
        "degenerate": degenerate,
        "collisions": collisions,
        "distinct": degenerate == 0 and collisions == 0,
    }


def check_steinberg_relations(zeta: Vec, i: int) -> bool:
    """s negates it; every level-i torus element fixes it, decided at h(g_i)
    as the fixing elements form a subgroup; and the reflection relation
    s u(x) . zeta = (u(-1/x) - 1) . zeta for each nonzero level-i x (the
    x = 0 instance is read as the plain s-relation)."""
    mod = zeta.module
    tw = mod.tower
    if mod.weyl_action(zeta) != -zeta:
        return False
    return (mod.act(torus(tw, tw.generator(i)), zeta) == zeta
            and mod.check_reflection_relation(tw.units(i), zeta) is None)


# -- the systems -------------------------------------------------------------


class DirectSystem:
    """One step i -> i+1 of a system, with its connecting map."""

    def __init__(self, tag: str, tower: Tower, i: int,
                 lam: TorusCharacter | None = None, mu: TorusCharacter | None = None,
                 theta: TorusCharacter | None = None):
        if tag not in ("F", "H", "L"):
            raise ValueError("system tag must be F, H or L")
        self.tag = tag
        self.tower = tower
        self.i = i
        if tag == "F" and (lam is None or mu is None):
            raise ValueError("system F needs the pair of characters")
        if tag != "F" and theta is None:
            raise ValueError(f"system {tag} needs a character")
        self.lam, self.mu, self.theta = lam, mu, theta
        bottom = mu if tag == "F" else theta
        self.field = field = bottom.field
        self.mod_i = InducedModule(tower, bottom, i)
        self.mod_next = InducedModule(tower, bottom, i + 1)
        if tag == "F":
            self.conn = borel_weight_vector(lam, mu, i, self.mod_next)
        elif tag == "H":
            self.conn = group_average_vector(theta, i, self.mod_next)
        else:
            trivial = TorusCharacter(tower, field, 0)
            self.st_i = InducedModule(tower, trivial, i)
            self.st_next = InducedModule(tower, trivial, i + 1)
            self.conn = steinberg_weight_vector(theta, i, self.mod_next)
        # filled as the checks need them, and dropped with the system
        self._shifted = {0: self.conn}  # x -> u(x).conn in mod_next; u(0) = 1
        self._connected = None  # [(v, connect(v))] over basis()

    # spanning sets of the level-i object

    def basis(self) -> list:
        one = self.field.one
        tops = ([{(0, k): c for k, c in v.support.items()} for v in self.st_i.steinberg_vectors()]
                if self.tag == "L" else [{(0, 0): one}])
        return tops + [{(1, label): one} for label in self.mod_i.labels()]

    def action(self, g: GroupElement, at_next: bool = False):
        """g's action on the level-i object (the next one with at_next),
        compiled once: a map of elements, monomial on the top's and on the
        bottom's labels."""
        if self.tag == "L":
            top = (self.st_next if at_next else self.st_i).action(g).label
        else:
            if self.tag == "F" and g.c != 0:
                raise ValueError("system F only carries the Borel action")
            scale = self.lam.eval(g.a) if self.tag == "F" else self.field.one

            def top(k):
                return k, scale
        maps = (top, (self.mod_next if at_next else self.mod_i).action(g).label)
        mul = self.field._mul

        def act(v: dict) -> dict:
            out = {}
            for (side, k), c in v.items():
                k2, r = maps[side](k)
                out[side, k2] = mul(c, r)
            return out
        return act

    def connect(self, v: dict) -> dict:
        """v at the next level: the labels embed, and the top's coordinate
        a at x (L's Steinberg coordinates; F's and H's line at x = 0) adds
        a u(x).conn to the bottom."""
        coords = {k: c for (side, k), c in v.items() if side == 0}
        if self.tag == "L":
            coords = self.st_i.steinberg_coordinates(Vec(self.st_i, coords))
        mul, add, zero = self.field._mul, self.field._add, self.field.zero
        out = dict(v)
        for x, a in coords.items():
            for label, c in self._shifted_conn(x).support.items():
                _acc(out, (1, label), mul(c, a), add, zero)
        return out

    def _shifted_conn(self, x: int) -> Vec:
        """u(x).conn in the next-level module, once per x per system."""
        if x not in self._shifted:
            tw = self.tower
            self._shifted[x] = self.mod_next.act(unip(tw, tw.value(x, self.i)), self.conn)
        return self._shifted[x]

    def _connected_basis(self) -> list:
        """(v, connect(v)) over the basis, connected once per system."""
        if self._connected is None:
            self._connected = [(v, self.connect(v)) for v in self.basis()]
        return self._connected

    # checks

    def check_injective(self) -> bool:
        pairs = self._connected_basis()
        grew = SparseSpan(self.field).extend(image for _, image in pairs)
        return len(grew) == len(pairs)

    def check_equivariance(self, elements) -> bool:
        pairs = self._connected_basis()
        for g in elements:
            act_i, act_next = self.action(g), self.action(g, at_next=True)
            if any(self.connect(act_i(v)) != act_next(image) for v, image in pairs):
                return False
        return True


# -- escape certificates -----------------------------------------------------


def counting_inequality(tag: str, q: int, i: int) -> dict:
    """The exact counting inequality lhs < rhs behind system tag's escape
    argument at level i (clm-4, ineq-36 and ineq-37 for F, H and L)."""
    fi = math.factorial(i)
    fi1 = math.factorial(i + 1)
    if tag == "F":
        lhs, rhs, ineq = (q ** fi - 1) * q ** fi, q ** fi1, "coset-union"
    elif tag == "H":
        lhs, rhs, ineq = q ** fi * (q ** (2 * fi) - 1), 2 * q ** fi1, "half-support"
    else:
        lhs, rhs, ineq = 2 * q ** (2 * fi), q ** fi1 - 1, "torus-orbit"
    return {"id": ineq, "lhs": lhs, "rhs": rhs, "holds": lhs < rhs}


def _coverage(tag: str, tower: Tower, i: int) -> dict:
    """How many next-level cell labels the connecting vector's support plus
    the lower module can reach, against the total.  A tight count means
    the escape argument is vacuous at these parameters."""
    reps = len(grp.center_quotient_reps(tower, i))
    u = tower.level_size(i)
    total = tower.level_size(i + 1)
    if tag == "F":
        covered = reps * u + u
    elif tag == "H":
        covered = reps * (1 + u) * u + u
    else:
        covered = 2 * reps * u + u
    return {"covered_labels": covered, "total_labels": total, "tight": covered >= total}


def nonsplit_certificate(tag: str, tower: Tower, i: int,
                         lam: TorusCharacter | None = None,
                         mu: TorusCharacter | None = None,
                         theta: TorusCharacter | None = None) -> dict:
    """Exact membership test: does the connecting vector stay inside
    (lower-level module) + (invariant subspace of the next level)?

    Escape (member = False) is the finite-level witness and yields PASS.
    When membership holds at parameters where the class coverage is tight,
    the instance is degenerate rather than wrong, and is SKIPPED with a
    note; membership at non-tight parameters would be a genuine FAIL.
    """
    system = DirectSystem(tag, tower, i, lam=lam, mu=mu, theta=theta)
    mod_next, conn = system.mod_next, system.conn
    inv = mod_next.invariant_subspace("T" if tag == "L" else "U")

    total = SparseSpan(system.field)
    one = system.field.one
    for label in system.mod_i.labels():
        total.insert({label: one})
    d_lower = total.dim
    for row in inv.basis():
        total.insert(row)
    member = total.contains(conn.support)

    chars = {"lambda": lam.exp, "mu": mu.exp} if tag == "F" else {"theta": theta.exp}
    cover = _coverage(tag, tower, i)
    payload = {
        "system": tag,
        "q": tower.q,
        "i": i,
        "characters": chars,
        "dims": {
            "ambient": mod_next.dim,
            "lower_module": d_lower,
            "invariants": inv.dim,
            "sum": total.dim,
            "support": len(conn.support),
        },
        "member": member,
        "inequality": counting_inequality(tag, tower.q, i),
        "coverage": cover,
    }
    if not member:
        payload["verdict"] = "PASS"
    elif cover["tight"]:
        payload["verdict"] = "SKIPPED"
        payload["note"] = (
            "degenerate instance: the class coverage is tight at these "
            "parameters, so the membership argument only applies from the "
            "next level on"
        )
    else:
        payload["verdict"] = "FAIL"
    return payload
