"""Betti-sequence classification for codimension-3 almost complete intersections.

An Artinian almost complete intersection (ACI) of codimension 3 has a
minimal graded free resolution with twist multisets (D, E, F) where
|D| = 4 and |E| = |F| + 3.  Linking in a complete intersection of type
D \\ {min D} induces a Gorenstein quotient, and the admissible (D, E, F)
are exactly the triples passing the three-stage test implemented by
:func:`check_betti`:

1. the triple decomposes combinatorially (:func:`decompose`);
2. the induced Gorenstein generator degrees G0 are admissible
   (``_induced_g0``, which :func:`induced_gorenstein` wraps);
3. the linkage type dominates the minimal complete-intersection type of
   the induced Gorenstein sequence, strictly so in the degrees forced to
   be non-minimal generators: the mci triple is within ``_stage3_caps``.

:func:`link_betti` performs the reverse bookkeeping (Gorenstein data plus
a chosen regular-sequence type to an ACI resolution), and
:func:`enumerate_admissible` streams every admissible triple within
degree bounds in a canonical deterministic order.
"""

from __future__ import annotations

import os
from functools import partial
from operator import attrgetter, itemgetter
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from ._frozen import Frozen, Record
from .gorenstein import (
    GorensteinBetti,
    check_gorenstein_betti,
    gaeta_diesel_violation,
    mci,  # noqa: F401 -- unused here; kept in the namespace, where tracing tools look it up
    mci_from_sorted,
    theta_of,
)
from .multiset import IntMultiset, _sorted_ints

def _check_shape(d: Sequence[int], e: Sequence[int], f: Sequence[int]) -> None:
    """The shape rule of the sorted (D, E, F): |D| = 4, |F| >= 2, |E| = |F| + 3, positive degrees.

    The checks run in that order and the first fault raises ValueError.
    The first values are read only once the cardinalities hold, when none
    of the three is empty.
    """
    if len(d) != 4:
        raise ValueError(f"|D| must be 4, got {len(d)}")
    if len(f) < 2:
        raise ValueError(f"|F| must be >= 2, got {len(f)}")
    if len(e) != len(f) + 3:
        raise ValueError(f"|E| must be |F| + 3 = {len(f) + 3}, got {len(e)}")
    if d[0] < 1 or e[0] < 1 or f[0] < 1:
        name = "D" if d[0] < 1 else "E" if e[0] < 1 else "F"
        raise ValueError(f"{name} must contain positive degrees only")


def _multiset_on_read(field: str) -> property:
    vals = attrgetter(field)
    return property(lambda b: IntMultiset.from_values(vals(b)), doc=f"``{field}`` as an IntMultiset.")


class AciBetti(Record):
    """Resolution twist multisets (D, E, F) of a candidate ACI quotient.

    The triple is kept as three sorted tuples of ints, ``d_vals``,
    ``e_vals`` and ``f_vals``, which is all :func:`check_betti` reads.
    ``d``, ``e`` and ``f`` wrap them in an :class:`IntMultiset` each time
    they are read.  Equality, hashing and pickling are those of the
    tuples; the repr shows the multisets.
    """

    __slots__ = ()
    d_vals: tuple[int, ...]
    e_vals: tuple[int, ...]
    f_vals: tuple[int, ...]

    d = _multiset_on_read("d_vals")
    e = _multiset_on_read("e_vals")
    f = _multiset_on_read("f_vals")

    def __new__(cls, d: IntMultiset, e: IntMultiset, f: IntMultiset) -> "AciBetti":
        return cls._from_sorted(d.vals, e.vals, f.vals)

    def __repr__(self) -> str:
        return f"AciBetti(d={self.d!r}, e={self.e!r}, f={self.f!r})"

    @classmethod
    def from_values(
        cls, d: Iterable[int], e: Iterable[int], f: Iterable[int]
    ) -> "AciBetti":
        """The triple of three iterables of ints, each value checked once.

        Each argument becomes one sorted list, type-checked as
        :meth:`IntMultiset.from_values` checks it (D, then E, then F), and
        :meth:`_from_sorted` checks the shape; the object is built without
        building the multisets ``__new__`` takes.
        """
        return cls._from_sorted(_sorted_ints(d), _sorted_ints(e), _sorted_ints(f))

    @classmethod
    def _from_sorted(cls, d: Sequence[int], e: Sequence[int], f: Sequence[int]) -> "AciBetti":
        """The triple of three sorted sequences of ints, without the multisets ``__new__`` takes.

        The shape rule is checked on the lengths and first values, and the
        sequences are stored as tuples (a tuple is kept as it is).
        """
        _check_shape(d, e, f)
        return tuple.__new__(cls, (tuple(d), tuple(e), tuple(f)))

    @classmethod
    def from_json(cls, data: object) -> "AciBetti":
        """Parse {"D": [...], "E": [...], "F": [...]}; bools, floats and strings are rejected.

        Anything but an object is refused first.  Each array's values are
        type-checked here, once, and :meth:`_from_sorted` takes sorted
        copies of the arrays.
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected an object with keys D, E, F, got {type(data).__name__}")
        try:
            arrays = [data[key] for key in "DEF"]
        except KeyError as exc:
            raise ValueError(f"expected keys D, E, F with integer arrays: {exc}") from exc
        for key, values in zip("DEF", arrays):
            if not isinstance(values, list) or not all(type(v) is int for v in values):
                raise ValueError(f"{key} must be an array of integers, got {values!r}")
        return cls._from_sorted(*map(sorted, arrays))

    def to_json(self) -> dict:
        return {"D": list(self.d_vals), "E": list(self.e_vals), "F": list(self.f_vals)}

    def key(self) -> tuple:
        """Canonical sort key: (norm(D), D, F, E)."""
        return (sum(self.d_vals), self.d_vals, self.f_vals, self.e_vals)


Vals = tuple[int, ...]  # the sorted values of a multiset, with repeats
# a sorted D and the sorted (F, E) pairs of its admissible triples
Batch = tuple[tuple[int, int, int, int], list[tuple[Vals, Vals]]]


class AciDecomposition(NamedTuple):
    """Canonical combinatorial decomposition of an aci-type triple.

    The five multisets are kept as the sorted value tuples :func:`decompose`
    built, which is all :func:`check_betti` reads.  ``dstar``, ``ehat``,
    ``s``, ``dbar`` and ``t`` wrap those tuples in an :class:`IntMultiset`
    each time they are read.  Equality, hashing and pickling are those of
    the tuple of fields.
    """

    d0: int
    dstar_vals: Vals
    theta_z: int
    ehat_vals: Vals
    s_vals: Vals
    dbar_vals: Vals
    t_vals: Vals
    theta_g: int
    d: int

    dstar = _multiset_on_read("dstar_vals")
    ehat = _multiset_on_read("ehat_vals")
    s = _multiset_on_read("s_vals")
    dbar = _multiset_on_read("dbar_vals")
    t = _multiset_on_read("t_vals")


class AciTypeFailure(Record):
    __slots__ = ()
    clause: int  # 2 or 3, matching the decomposition conditions
    vals: tuple[Vals, ...]  # (missing,) or (Ehat, expected) as sorted value tuples; read by reason

    def __new__(cls, clause: int, vals: tuple[Vals, ...]) -> "AciTypeFailure":
        return tuple.__new__(cls, (clause, vals))

    @property
    def reason(self) -> str:
        multisets = map(IntMultiset.from_values, self.vals)
        if self.clause == 2:
            return "(d - F) is not a submultiset of E: missing {}".format(*multisets)
        return "Ehat = {} differs from (d0 + Dbar) + (theta_z - S) = {}".format(*multisets)


def _t_values(theta_g: int, s_vals: Vals, f_card: int, dbar_card: int) -> Vals:
    """Socle-halving slot: (theta_g/2,) only when it lies in S and |F|+|Dbar| is even."""
    if theta_g % 2 == 0 and (f_card + dbar_card) % 2 == 0 and theta_g // 2 in s_vals:
        return (theta_g // 2,)
    return ()


def decompose(b: AciBetti) -> AciDecomposition | AciTypeFailure:
    """Run the aci-type decomposition with d0 = min D (see :func:`_decompose`)."""
    return _decompose(b.d_vals, b.e_vals, b.f_vals)


def _decompose(d: Vals, e: Vals, f: Vals) -> AciDecomposition | AciTypeFailure:
    """The aci-type decomposition of the sorted tuples of D, E and F, with d0 = min D.

    Succeeds iff (d - F) is a submultiset of E and the leftover
    Ehat = E \\ (d - F) splits exactly as (d0 + Dbar) + (theta_z - S) with
    S = Dstar & (theta_z - Ehat).

    Ehat is a copy of E with each d - f removed, so it stays sorted; as
    |E| = |F| + 3, it holds three values once every d - f is found.  Dstar
    is D without its first value, and S takes, in order, each value x of
    Dstar whose partner theta_z - x has a copy in Ehat left over; the rest
    is Dbar.  Either outcome keeps sorted value tuples and builds no
    multiset (see :class:`AciDecomposition` and :class:`AciTypeFailure`).
    """
    d_norm = sum(d)
    ehat = list(e)
    missing = []
    for v in reversed(f):  # d - f ascending
        w = d_norm - v
        if w in ehat:
            ehat.remove(w)
        else:
            missing.append(w)
    if missing:
        return AciTypeFailure(2, (tuple(missing),))
    d0 = d[0]
    dstar = d[1:]
    theta_z = d_norm - d0
    s = []
    dbar = []
    for v in dstar:
        if ehat.count(theta_z - v) > s.count(v):
            s.append(v)
        else:
            dbar.append(v)
    expected = [d0 + v for v in dbar] + [theta_z - v for v in s]  # (d0 + Dbar) + (theta_z - S)
    expected.sort()
    if ehat != expected:
        return AciTypeFailure(3, (tuple(ehat), tuple(expected)))
    theta_g = theta_z - d0
    s = tuple(s)
    dbar = tuple(dbar)
    t = _t_values(theta_g, s, len(f), len(dbar))
    return AciDecomposition._make((d0, dstar, theta_z, tuple(ehat), s, dbar, t, theta_g, d_norm))


class GorensteinFailure(Record):
    __slots__ = ()
    kind: str  # "parity" | "gaeta_diesel" | "socle"
    g0: tuple[int, ...]  # sorted; reason reruns the failed check on it
    theta_g: int

    def __new__(cls, kind: str, g0: tuple[int, ...], theta_g: int) -> "GorensteinFailure":
        return tuple.__new__(cls, (kind, g0, theta_g))

    @property
    def reason(self) -> str:
        g0 = IntMultiset.from_values(self.g0)
        if self.kind == "parity":
            return f"induced generator multiset {g0} has even cardinality {len(self.g0)}"
        verdict = check_gorenstein_betti(g0)
        if self.kind == "gaeta_diesel":
            return f"G0 = {g0}: {verdict.reason}"
        return f"G0 = {g0} has socle-syzygy degree {verdict.theta}, expected {self.theta_g}"


def _induced_g0(dec: AciDecomposition, f: Vals) -> list[int] | GorensteinFailure:
    """The sorted G0 = (theta_z - F) + Dbar + T of the sorted F, if it is admitted, else the failure.

    An admitted G0 passes ``check_gorenstein_betti`` with theta_g as its
    theta: all that ``GorensteinBetti`` validates.
    """
    theta_z = dec.theta_z
    h = [theta_z - v for v in f]
    h += dec.dbar_vals
    h += dec.t_vals
    h.sort()
    if len(h) % 2 == 0:
        return GorensteinFailure("parity", tuple(h), dec.theta_g)
    theta = theta_of(h)  # the checks of check_gorenstein_betti, which words the reason
    if h[0] < 1 or theta is None or gaeta_diesel_violation(h, theta) is not None:
        return GorensteinFailure("gaeta_diesel", tuple(h), dec.theta_g)
    if theta != dec.theta_g:
        return GorensteinFailure("socle", tuple(h), dec.theta_g)
    return h


def induced_gorenstein(
    dec: AciDecomposition, f: IntMultiset
) -> GorensteinBetti | GorensteinFailure:
    """Gorenstein generator data induced by linkage: G0 = (theta_z - F) + Dbar + T."""
    h = _induced_g0(dec, f.values())
    if isinstance(h, GorensteinFailure):
        return h
    return GorensteinBetti(IntMultiset.from_values(h), dec.theta_g)


class Verdict(Record):
    """Outcome of the three-stage admissibility test.

    An admitted G0 is kept as its sorted values and theta_g: ``beta_g``
    builds the :class:`GorensteinBetti` each time it is read, and
    ``witness`` is formatted when read.  Equality, hashing and pickling
    compare those values.
    """

    __slots__ = ()
    admissible: bool
    stage: int | None
    failure: AciTypeFailure | GorensteinFailure | tuple | None  # stage 3: (d_1, d_2, d_3), caps
    g0: tuple[int, ...] | None  # the admitted G0, sorted
    theta_g: int | None
    mci: tuple[int, int, int] | None

    def __new__(
        cls,
        admissible: bool,
        stage: int | None = None,
        failure: AciTypeFailure | GorensteinFailure | tuple | None = None,
        g0: tuple[int, ...] | None = None,
        theta_g: int | None = None,
        mci: tuple[int, int, int] | None = None,
    ) -> "Verdict":
        return tuple.__new__(cls, (admissible, stage, failure, g0, theta_g, mci))

    @property
    def beta_g(self) -> GorensteinBetti | None:
        if self.g0 is None:
            return None
        return GorensteinBetti(IntMultiset.from_values(self.g0), self.theta_g)

    @property
    def witness(self) -> str | None:
        if self.stage == 1:
            return self.failure.reason
        if self.stage == 2:
            return f"{self.failure.kind}: {self.failure.reason}"
        if self.stage is None:
            return None
        (dvals, caps), e = self.failure, self.mci
        if any(d < x for d, x in zip(dvals, e)):
            return "({},{},{}) ≱ ({},{},{})".format(*dvals, *e)
        # strict indices rise with s, so the first one over its cap names the failing s
        i = next(i for i in (1, 2, 3) if e[i - 1] > caps[i - 1])
        return f"s={dvals[i - 1]}, i={i}, d_{i}={dvals[i - 1]} not > e_{i}={e[i - 1]}"

    def to_json(self) -> dict:
        return {
            "admissible": self.admissible,
            "stage": self.stage,
            "beta_G": self.beta_g.to_json() if self.g0 is not None else None,
            "mci": list(self.mci) if self.mci else None,
            "witness": self.witness,
        }


def _stage3_caps(dvals: Sequence[int], s_vals: Sequence[int], t: Container[int]) -> tuple[int, int, int]:
    """The largest mci triple (e_1, e_2, e_3) that stage 3 admits.

    ``dvals`` is the sorted linkage type d_1 <= d_2 <= d_3 (Dstar),
    ``s_vals`` the values of S and ``t`` the values of T, empty or one
    copy of theta_g / 2, a value of S.  Stage 3 asks e_i <= d_i, strictly
    at the index min{j | d_j = s} + mult_{S-T}(s) - 1 of each s in S - T,
    whose chosen regular-sequence members are forced non-minimal.  So the
    cap is d_i, and d_i - 1 at those indices; the indices of distinct s
    differ, so their order does not matter.
    """
    caps = list(dvals)
    for v in set(s_vals):
        m = s_vals.count(v) - (v in t)
        if m:
            caps[dvals.index(v) + m - 1] -= 1  # S is within Dstar, so v is in dvals
    return tuple(caps)


def check_betti(b: AciBetti) -> Verdict:
    """Decide whether (D, E, F) is admissible for a codimension-3 ACI (see :func:`_decide`)."""
    return _decide(b.d_vals, b.e_vals, b.f_vals)


def _decide(d: Vals, e: Vals, f: Vals) -> Verdict:
    """The three-stage decision on the sorted tuples of D, E and F.

    Every stage reads the decomposition's sorted tuples and the sorted
    G0 list, and no multiset is built: the verdict keeps a stage-1
    witness and an admitted G0 as tuples.  By the lemma of
    :func:`_candidates_for_d`, theta_g > cap_2 + cap_3, so an admitted G0
    has B empty and its mci triple is (h_0, h_1, e_3).
    ``enumerate`` runs it on every pair it emits, so each :class:`Verdict`
    is built with its six fields in order.
    """
    dec = _decompose(d, e, f)
    if dec.__class__ is AciTypeFailure:
        return Verdict(False, 1, dec, None, None, None)
    h = _induced_g0(dec, f)
    if h.__class__ is GorensteinFailure:
        return Verdict(False, 2, h, None, None, None)
    theta_g = dec.theta_g
    e = mci_from_sorted(h, theta_g)  # h has just been admitted, so no re-check
    dstar = dec.dstar_vals
    caps = _stage3_caps(dstar, dec.s_vals, dec.t_vals)
    if e[0] <= caps[0] and e[1] <= caps[1] and e[2] <= caps[2]:
        return Verdict(True, None, None, tuple(h), theta_g, e)
    return Verdict(False, 3, (dstar, caps), tuple(h), theta_g, e)


# ----------------------------------------------------------------------
# linkage bookkeeping
# ----------------------------------------------------------------------


class LinkResult(Frozen):
    """Four-term ACI resolution obtained by linking a Gorenstein quotient."""

    _fields = ("d0", "d", "d_level", "e_level", "f_level", "minimal")
    d0: int
    d: int
    d_level: IntMultiset
    e_level: IntMultiset
    f_level: IntMultiset
    minimal: AciBetti

    def resolution(self) -> list[IntMultiset]:
        return [self.d_level, self.e_level, self.f_level]

    def to_json(self) -> dict:
        return {
            "d0": self.d0,
            "d": self.d,
            "resolution": {
                "D": self.d_level.to_list(),
                "E": self.e_level.to_list(),
                "F": self.f_level.to_list(),
            },
            "minimal": self.minimal.to_json(),
        }


def link_betti(
    gor_gens: IntMultiset,
    gor_theta: int,
    ci_type: Sequence[int],
    extra_gens: IntMultiset | None = None,
) -> LinkResult:
    """Degree bookkeeping for linking a Gorenstein quotient in a complete intersection.

    ``ci_type`` is the type of the chosen regular sequence; its members
    must be pfaffian slots of the presentation, i.e. minimal generator
    degrees or degrees added as bordered pairs via ``extra_gens`` (each
    added degree e brings the partner slot gor_theta - e).  Realizability
    of the regular sequence is the caller's responsibility.

    The emitted levels are the mapping-cone output; ``minimal`` removes
    the ghost pair (d0 + e) in the E and F levels that each bordered pair
    creates through its unit entry.
    """
    if extra_gens is None:
        extra_gens = IntMultiset.empty()
    ci = IntMultiset.from_values(ci_type)
    if ci.card() != 3:
        raise ValueError("ci_type must have exactly three degrees")
    GorensteinBetti(gor_gens, gor_theta)  # raises unless (gens, theta) is admissible
    slots = gor_gens.sum(extra_gens).sum(extra_gens.affine(gor_theta, -1))
    if gor_gens.card() + extra_gens.card() < 5:
        # a 4-generator codimension-3 quotient cannot be Gorenstein, so a
        # genuine almost complete intersection keeps at least two residual
        # slots after ghost removal
        raise ValueError(
            "slot bookkeeping mismatch: fewer than two residual slots; "
            "the linked quotient cannot be an almost complete intersection"
        )
    if not ci.is_submultiset(slots):
        raise ValueError(
            f"slot bookkeeping mismatch: ci_type {ci} is not contained in the pfaffian slots {slots}"
        )
    if not extra_gens.is_submultiset(ci):
        raise ValueError(
            f"slot bookkeeping mismatch: added degrees {extra_gens} must be consumed by ci_type {ci}"
        )
    theta_z = ci.norm()
    d0 = theta_z - gor_theta
    if d0 <= 0:
        raise ValueError(f"linkage degenerate: d0 = {d0} must be positive")
    d = d0 + theta_z
    f_slots = slots.diff(ci)
    k = f_slots.affine(d0, 1)
    d_level = ci.sum(IntMultiset.from_values([d0]))
    e_level = ci.affine(d0, 1).sum(k)
    f_level = k.affine(d, -1)
    ghosts = extra_gens.affine(d0, 1)
    if not (ghosts.is_submultiset(e_level) and ghosts.is_submultiset(f_level)):
        raise ValueError(f"slot bookkeeping mismatch: ghost degrees {ghosts} not present")
    minimal = AciBetti(d_level, e_level.diff(ghosts), f_level.diff(ghosts))
    return LinkResult(d0, d, d_level, e_level, f_level, minimal)


# ----------------------------------------------------------------------
# bounded enumeration
# ----------------------------------------------------------------------


# The choices of S as index subsets of the sorted Dstar: (S, Dbar, ties),
# where bit j - 1 of ties is set when S takes index j but not j - 1.  A
# D whose Dstar has dstar[j - 1] == dstar[j] skips such a choice, so S takes
# the first copies of a repeated value and each submultiset comes once.
_S_CHOICES = (
    ((), (0, 1, 2), 0),
    ((0,), (1, 2), 0),
    ((1,), (0, 2), 1),
    ((2,), (0, 1), 2),
    ((0, 1), (2,), 0),
    ((0, 2), (1,), 2),
    ((1, 2), (0,), 1),
    ((0, 1, 2), (), 0),
)


class _FWindow(NamedTuple):
    """One (S, |F|) slice of the F search for a fixed D.

    Every F in the window is a sorted k-tuple over [lo, hi], and its
    induced generators G0 = (theta_z - F) + tail number 2m + 1, m <= cap_1.
    """

    ehat: list[int]  # sorted
    k: int
    lo: int
    hi: int
    tail: list[int]  # sorted Dbar + T: the part of G0 that does not come from F
    caps: tuple[int, int, int]  # the stage-3 caps on the mci triple


def _f_windows(
    dvals: tuple[int, int, int, int], max_degree: int, max_f: int
) -> Iterator[_FWindow]:
    """Every (S, |F|) window of a sorted D that can hold an admissible F.

    Each admissible triple determines a canonical overlap
    S = Dstar & (theta_z - Ehat), so iterating over the submultisets of
    Dstar and keeping only the choices that reproduce themselves as the
    canonical overlap reaches every admissible triple exactly once.  The
    submultisets are the index subsets of ``_S_CHOICES`` that take the
    first copies of a repeated value.

    max Ehat = max(d0 + max Dbar, theta_z - min S) is read off the sorted
    Dstar at the extreme indices of Dbar and S, so a choice with max Ehat
    above ``max_degree`` is dropped before any list is built.  The
    canonical test runs on the sorted value lists.  With Ehat = (d0 + Dbar) +
    (theta_z - S), theta_z - Ehat = (theta_g - Dbar) + S and Dstar =
    Dbar + S, so Dstar & (theta_z - Ehat) = S + (Dbar & (theta_g - Dbar)):
    S is canonical iff no x in Dbar has its partner theta_g - x in Dbar
    (x itself counts as its partner when x = theta_g / 2).

    T is empty when |F| + |Dbar| is odd, and [theta_g / 2] when it is even
    and theta_g / 2 is in S (else |G0| is even).  Then k = |F| runs where
    |G0| = 2m + 1 is odd and m <= cap_1, as :func:`_candidates_for_d` needs.
    """
    d0 = dvals[0]
    dstar = dvals[1:]
    theta_z = sum(dstar)
    theta_g = theta_z - d0
    d = d0 + theta_z
    # degree bounds, d - f must be a valid E entry, and the induced
    # generator theta_z - f must be positive and below theta_g
    lo = max(1, d - max_degree, d0 + 1)
    hi = min(max_degree, d - 1, theta_z - 1)
    if lo > hi:
        return
    dbar_top = max_degree - d0  # d0 + x <= max_degree for x in Dbar
    s_floor = theta_z - max_degree  # theta_z - x <= max_degree for x in S
    ties = (dstar[0] == dstar[1]) | (dstar[1] == dstar[2]) << 1
    for s_idx, dbar_idx, s_ties in _S_CHOICES:
        if s_ties & ties or (s_idx and dstar[s_idx[0]] < s_floor) or (dbar_idx and dstar[dbar_idx[-1]] > dbar_top):
            continue  # a repeated S, or max Ehat > max_degree
        dbar_vals = [dstar[j] for j in dbar_idx]
        if any(theta_g - x in dbar_vals for x in dbar_vals):
            continue  # not the canonical overlap; the canonical choice covers it
        s_vals = [dstar[j] for j in s_idx]
        ehat_vals = [d0 + x for x in dbar_vals] + [theta_z - x for x in s_vals]
        ehat_vals.sort()
        t_even = _t_values(theta_g, s_vals, 0, 0)  # T when |F| + |Dbar| is even
        for t in ((), t_even) if t_even else ((),):
            tail = sorted(dbar_vals + list(t))
            caps = _stage3_caps(dstar, s_vals, t)
            # k + |tail| = 2m + 1 is odd and m <= h_0 <= cap_1
            for k in range(3 - len(tail) % 2, min(max_f, 2 * caps[0] + 1 - len(tail)) + 1, 2):
                yield _FWindow(ehat_vals, k, lo, hi, tail, caps)


def _admissible_f_tuples(dvals: tuple[int, int, int, int], w: _FWindow) -> list[tuple[int, ...]]:
    """The F of window ``w`` whose G0 passes stage 3, in lex order.

    ``w`` must be a window :func:`_f_windows` yields, so theta_g > cap_2 +
    cap_3: the lemma of :func:`_candidates_for_d`, by which stage 3 admits
    no G0 whose index set B is not empty.  G0 is built pair by pair from
    the outside in, as :func:`_candidates_for_d` describes, so it passes
    Gaeta-Diesel, B is empty, and only its e_3 is tested.  One routine,
    ``place``, places every pair i = 1..m after h_0, from the previous
    pair's a and u: pair m takes the rest of the budget, and the last-pair
    cut bounds its u.
    """
    m = (w.k + len(w.tail)) // 2
    cap1, cap2, cap3 = w.caps
    theta_z = sum(dvals[1:])
    theta_g = theta_z - dvals[0]
    tail = w.tail
    g_lo, g_hi = theta_z - w.hi, theta_z - w.lo  # the generators theta_z - f of F entries
    g0 = [0] * (2 * m + 1)
    found: list[tuple[int, ...]] = []

    def place(i: int, budget: int, a_prev: int, u_prev: int, tl: int, tr: int) -> None:
        # g0[:i] and g0[2m + 2 - i:] are placed, with a_prev = h_{i-1} and
        # u_prev = h_{2m+2-i} (theta_g for i = 1), tail[tl:tr + 1] is not,
        # and the pairs i..m share the budget of their deltas
        cut = theta_g - 1 - u_prev  # for i >= 2, the largest h_i that keeps i out of B
        top = cap2 if i == 1 else cut  # e_2 = h_1
        u_hi = u_prev
        if i == m:  # the last-pair cut; with m = 1, cut = -1 and u <= cap_3
            u_hi = cut if cut > cap3 else cap3
            if u_hi > u_prev:
                u_hi = u_prev
        u_lo = g_lo
        if tl <= tr:  # the tail left must lie in [a, u]
            if top > tail[tl]:
                top = tail[tl]
            u_lo = tail[tr]
        # plain comparisons in place of min and max: this loop is the hot path
        for delta in range(budget if i == m else 0, budget + 1):  # pair m takes the rest
            s = theta_g - 1 - delta
            a_hi = s // 2
            if a_hi > s - u_lo:
                a_hi = s - u_lo
            if a_hi > top:
                a_hi = top
            if a_hi < a_prev:
                break  # a_hi falls as delta grows
            a_lo = s - u_hi
            for a in range(a_prev if a_lo < a_prev else a_lo, a_hi + 1):
                u = s - a
                ntl, ntr = tl, tr
                if ntl <= ntr and a == tail[ntl]:
                    ntl += 1
                elif not g_lo <= a <= g_hi:
                    continue
                if ntl <= ntr and u == tail[ntr]:
                    ntr -= 1
                elif not g_lo <= u <= g_hi:
                    continue
                if ntr - ntl < 2 * (m - i):  # the tail left fits in the slots left
                    g0[i], g0[2 * m + 1 - i] = a, u
                    if i < m:
                        place(i + 1, budget - delta, a, u, ntl, ntr)
                    elif mci_from_sorted(g0, theta_g)[2] <= cap3:  # B is empty: e_1 = h_0, e_2 = h_1 fit
                        rest = list(g0)
                        for t in tail:
                            rest.remove(t)
                        # from a list: tuple() of a generator grows and shrinks its
                        # tuple, and that raised enumerate's peak RSS by 0.4 MB
                        found.append(tuple([theta_z - x for x in reversed(rest)]))

    # |tail| <= 2m - 1, since |F| >= 2, so the tail always fits after h_0
    for h0 in range(m, min(cap1, tail[0] if tail else cap1) + 1):
        g0[0] = h0
        tl = 1 if tail and h0 == tail[0] else 0
        if tl or g_lo <= h0 <= g_hi:
            place(1, h0 - m, h0, theta_g, tl, len(tail) - 1)
    del place  # it refers to itself, so each window would leave a cycle for the collector
    found.sort()
    return found


def _candidates_for_d(dvals: tuple[int, int, int, int], max_degree: int, max_f: int) -> Batch:
    """``dvals`` and the sorted (F, E) tuple pairs of its admissible triples.

    The search runs over the windows of :func:`_f_windows`.  Within a
    window |G0| = k + |Dbar| + |T| = 2m + 1 is fixed, and the socle degree
    balance pins norm(F), hence norm(G0) = m * theta_g.  The search builds
    the sorted G0 = h_0 <= ... <= h_2m and reads F = theta_z - (G0 - tail)
    off it, where the tail Dbar + T is the part of G0 that does not come
    from F.

    Gaeta-Diesel asks theta_g > h_i + h_{2m+1-i} for i = 1..m.  These m
    pairs use every entry but h_0, so their sums add up to
    m * theta_g - h_0.  With the i-th pair sum written theta_g - 1 -
    delta_i, G0 passes exactly when every delta_i >= 0, and then the
    deltas sum to h_0 - m.  The mci triple has e_1 = h_0, and stage 3
    needs e_1 <= cap_1 <= d_1, so h_0 lies in [m, cap_1] and the budget
    h_0 - m is small.  A window with m > cap_1 holds no F, so
    :func:`_f_windows` yields none.

    So G0 is built from the outside in.  It picks h_0, then each pair
    (a, u) = (h_i, h_{2m+1-i}) with a + u = theta_g - 1 - delta_i, a at
    least the previous a, u at most the previous u, and a <= u; the last
    pair takes the rest of the budget.  The sorted tail is matched
    greedily: an a equal to the smallest tail value left is that value, a
    u equal to the largest one left is that one, and every other entry
    must be a generator theta_z - f with f in [lo, hi].  The tail values
    left must lie in [a, u] and fit in the slots left.  As G0 is sorted,
    this accepts exactly the G0 that contain the tail and whose other
    entries come from F, and each of them once.

    Every pair is placed by the same loop, the last one too: pair m takes
    the rest of the budget, so its sum s is fixed, and the tail values
    left for its two slots are none, one value t (taken as a, or else as
    u with a = s - t < t from F), or two (a and u); the greedy matching
    covers each case, and a G0 that leaves a tail value unplaced is not
    completed.

    Stage 3 keeps B empty.  ``mci_from_sorted`` in the gorenstein module
    reads B = {2 <= i <= m | theta_g <= h_i + h_{2m+2-i}}; when B is not
    empty, e_2 = h_{max B} and e_3 = h_{2m+2-min B}.  When B is empty, it
    reads C = {3 <= i <= m + 1 | theta_g <= h_i + h_{2m+3-i}}, and e_3 =
    h_{max C} if C is not empty, else h_2.

    Lemma: every window :func:`_f_windows` yields has theta_g > cap_2 +
    cap_3.  Proof: theta_g = d_1 + d_2 + d_3 - d_0 >= d_2 + d_3 >= cap_2
    + cap_3, since d_0 = min D and the caps only lower Dstar.  Equality
    needs cap_2 = d_2 and cap_3 = d_3, and then, by :func:`_stage3_caps`,
    S - T is at most one copy of d_1.  T is empty or [theta_g / 2], and
    theta_g / 2 is in Dstar only when d_2 = d_3 = theta_g / 2.  So Dbar
    holds the partner pair {d_2, d_3} (T empty) or theta_g / 2, which is
    its own partner.  Either way S is not the canonical overlap, and
    :func:`_f_windows` drops that choice.  The same holds for
    :func:`decompose`, whose S is canonical by definition.

    So a G0 with some b in B fails stage 3: e_2 + e_3 >= h_b + h_{2m+2-b}
    >= theta_g > cap_2 + cap_3.  With B empty the mci triple is (h_0,
    h_1, e_3), and three cuts follow.
    - e_2 = h_1, so h_1 <= cap_2.
    - No index i in [2, m] is in B, so h_i <= theta_g - 1 - h_{2m+2-i}.
    - The last-pair cut, on (a, u) = (h_m, h_{m+1}) with m >= 2 and
      u_prev = h_{m+2}: if u + u_prev >= theta_g, then m + 1 is in C, and
      it is the largest index C can hold, so e_3 = u.  So u <= max(cap_3,
      theta_g - 1 - u_prev): the search keeps a >= s - max(cap_3,
      theta_g - 1 - u_prev), and it skips the pair when ceil(s / 2)
      exceeds that max.  With m = 1 the mci triple is (h_0, a, u), so
      there u <= cap_3 and a <= cap_2; the search takes u_prev = theta_g
      for pair 1, so the same max reads cap_3 there.

    So every complete G0 passes Gaeta-Diesel, with norm(G0) = m * theta_g,
    and has B empty, h_0 <= cap_1 and h_1 <= cap_2.  It is kept when the
    e_3 of ``mci_from_sorted`` is within the window's cap_3 from
    ``_stage3_caps``.  Each F tuple is paired with its E, sorted once
    from (d - F) + Ehat, and the pairs are sorted once by (F, E), which
    within one D is the order of :meth:`AciBetti.key`.
    No pair repeats: S is read off Ehat, so windows of one D with the same
    |F| differ in Ehat.  Every pair is then self-checked on its sorted
    tuples, which :func:`_admitted` hands to :func:`_decide` as they are;
    ``python -O`` strips that check.  No :class:`AciBetti` or
    :class:`IntMultiset` is built here: the pairs go to ``enumerate`` as
    they are, and :func:`enumerate_admissible` stores the same tuples in
    its triples.
    """
    d = sum(dvals)
    pairs = []
    for w in _f_windows(dvals, max_degree, max_f):
        ehat = w.ehat
        for f_tuple in _admissible_f_tuples(dvals, w):
            e_list = [d - x for x in f_tuple] + ehat
            e_list.sort()
            pairs.append((f_tuple, tuple(e_list)))
    pairs.sort()
    for f_tuple, e_tuple in pairs:
        assert _admitted(dvals, e_tuple, f_tuple), (dvals, e_tuple, f_tuple)
    return dvals, pairs


def _admitted(dvals: Vals, e_tuple: Vals, f_tuple: Vals) -> bool:
    """The self-check of one emitted pair: :class:`AciBetti`'s checks and :func:`_decide`, on sorted tuples.

    A pair that breaks :func:`_check_shape` fails the check rather than
    raising its ValueError; the rest is decided by :func:`_decide` on the
    tuples as they are.
    """
    try:
        _check_shape(dvals, e_tuple, f_tuple)
    except ValueError:
        return False
    return _decide(dvals, e_tuple, f_tuple).admissible


def _sorted_d_tuples(max_degree: int) -> Iterator[tuple[int, int, int, int]]:
    """All sorted 4-tuples over [1, max_degree], by total and then in lex order.

    They are generated lazily: for a fixed total each entry ranges over
    the values that leave the later entries room to be at least it and at
    most ``max_degree``, and the last entry is what the total leaves.
    """
    top = max_degree
    for total in range(4, 4 * top + 1):
        for a in range(max(1, total - 3 * top), total // 4 + 1):
            for b in range(max(a, total - a - 2 * top), (total - a) // 3 + 1):
                for c in range(max(b, total - a - b - top), (total - a - b) // 2 + 1):
                    yield (a, b, c, total - a - b - c)


def worker_count(jobs: int) -> int:
    """Validated process count: at least 1, clamped at the CPUs this process may run on.

    Those are the CPUs of its affinity mask, which a cgroup's cpuset also
    narrows, where the platform reports one; elsewhere all the CPUs of the
    machine.  The output does not depend on the count, so clamping changes
    nothing but the number of processes started.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def _enumerate_batches(max_degree: int, max_f: int, jobs: int = 1) -> Iterator[Batch]:
    """Every sorted D with admissible triples, and their (F, E) pairs, in the canonical order.

    Both :func:`enumerate_admissible` and the ``enumerate`` command read
    this stream.  It checks the bounds, takes the D of
    :func:`_sorted_d_tuples` one by one, and hands them to
    :func:`_candidates_for_d`, in a pool of ``jobs`` processes when that is
    more than one; the workers return each D with its pairs.  A D with no
    pair is skipped.
    """
    jobs = worker_count(jobs)
    if type(max_degree) is not int or type(max_f) is not int:
        raise ValueError(f"max_degree and max_f must be integers, got {max_degree!r}, {max_f!r}")
    if max_degree < 1 or max_f < 2:
        return
    d_tuples = _sorted_d_tuples(max_degree)
    candidates = partial(_candidates_for_d, max_degree=max_degree, max_f=max_f)
    has_pairs = itemgetter(1)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            yield from filter(has_pairs, pool.imap(candidates, d_tuples, chunksize=16))
    else:
        yield from filter(has_pairs, map(candidates, d_tuples))


def enumerate_admissible(
    max_degree: int, max_f: int, jobs: int = 1
) -> Iterator[AciBetti]:
    """Stream every admissible (D, E, F) with degrees <= max_degree and |F| <= max_f.

    Output is deduplicated and globally sorted by (norm(D), D, F, E); the
    stream is identical for any job count.  ``jobs`` goes through
    :func:`worker_count`, and the bounds must be ints.  Each triple keeps
    the sorted D tuple and the self-checked (F, E) tuple pair of
    :func:`_enumerate_batches` as they are, and
    :meth:`AciBetti._from_sorted` checks their shape again.
    """
    for dvals, pairs in _enumerate_batches(max_degree, max_f, jobs):
        for f_tuple, e_tuple in pairs:
            yield AciBetti._from_sorted(dvals, e_tuple, f_tuple)
