import hashlib
import importlib.util
import json
import os
import pickle
import random
from pathlib import Path

import pytest

from bettiforge import aci, gorenstein
from bettiforge.aci import (
    AciBetti,
    AciTypeFailure,
    GorensteinFailure,
    check_betti,
    decompose,
    enumerate_admissible,
    induced_gorenstein,
    link_betti,
    worker_count,
)
from bettiforge.gorenstein import (
    GorensteinBetti,
    check_gorenstein_betti,
    gaeta_diesel_violation,
    hilbert_from_resolution,
    mci,
    mci_from_sorted,
)
from bettiforge.multiset import IntMultiset
from support import cancels_from_lex, is_o_sequence, is_si_sequence, lex_betti, random_admissible

ms = IntMultiset.from_values

# the four worked classification cases used throughout
CASE_REJECT_DOMINATION = dict(
    d=[3, 6, 6, 6], e=[8, 8, 8, 10, 10, 10, 12, 12, 12, 12], f=[9, 11, 11, 11, 13, 13, 13]
)
CASE_REJECT_STRICTNESS = dict(
    d=[2, 5, 5, 7], e=[7, 7, 7, 9, 9, 9, 10, 11], f=[8, 10, 10, 10, 12]
)
CASE_ADMISSIBLE = dict(d=[4, 5, 5, 9], e=[9, 9, 9, 11, 11, 11, 13], f=[12, 12, 12, 14])
CASE_ADMISSIBLE_GHOST = dict(
    d=[4, 5, 5, 9], e=[9, 9, 9, 10, 11, 11, 11, 13], f=[10, 12, 12, 12, 14]
)


def betti(case):
    return AciBetti.from_values(case["d"], case["e"], case["f"])


# ----------------------------------------------------------------------
# input validation
# ----------------------------------------------------------------------


def test_cardinality_validation():
    with pytest.raises(ValueError, match=r"\|D\|"):
        AciBetti.from_values([1, 2, 3], [4, 4, 4, 4, 4], [5, 5])
    with pytest.raises(ValueError, match=r"\|E\|"):
        AciBetti.from_values([1, 2, 3, 4], [4, 4, 4, 4], [5, 5])
    with pytest.raises(ValueError, match=r"\|F\|"):
        AciBetti.from_values([1, 2, 3, 4], [4, 4, 4, 4], [5])
    for d, e, f, name in (
        ([0, 2, 3, 4], [4, 4, 4, 4, 4], [5, 5], "D"),
        ([1, 2, 3, 4], [-4, 4, 4, 4, 4], [5, 5], "E"),
        ([1, 2, 3, 4], [4, 4, 4, 4, 4], [0, 5], "F"),
        ([1, 2, 3, 4], [0, 4, 4, 4, 4], [-5, 5], "E"),  # the first of D, E, F at fault is named
    ):
        with pytest.raises(ValueError, match=f"^{name} must contain positive degrees only$"):
            AciBetti.from_values(d, e, f)


def test_json_round_trip():
    b = betti(CASE_ADMISSIBLE)
    assert AciBetti.from_json(b.to_json()) == b
    with pytest.raises(ValueError):
        AciBetti.from_json({"D": [1, 2, 3, 4]})


def _composed(d, e, f):
    """The oracle: one validated multiset per argument, then ``__init__``'s checks."""
    return AciBetti(IntMultiset.from_values(d), IntMultiset.from_values(e), IntMultiset.from_values(f))


def _json_oracle(data):
    """``from_json`` as its own array check in front of the composition."""
    for key in "DEF":
        values = data[key]
        if not isinstance(values, list) or not all(type(v) is int for v in values):
            raise ValueError(f"{key} must be an array of integers, got {values!r}")
    return _composed(data["D"], data["E"], data["F"])


def _outcome(build, *args):
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "error", str(exc)


GOOD_D, GOOD_E, GOOD_F = [4, 5, 5, 9], [9, 9, 9, 11, 11, 11, 13], [12, 12, 12, 14]


D_TYPES = [[4, 5, 5.0, 9], [True, 5, 5, 9], [4, "5", 5, 9]]
E_TYPES = [[9, 9, 9, 11, 11, 11, 13.0], [9, None, 9, 11, 11, 11, 13], [False] * 7]
F_TYPES = [[12, 12, 12, 14.5], [12, "12", 12, 14], [True, True]]


def _fault_corpus():
    """(D, E, F) lists with one fault, with several at once, and without one.

    Type faults (bool, float, str, None) in each of D, E and F, the three
    cardinality faults, and a non-positive degree in each of D, E and F,
    alone and combined, so that the order in which the checks run shows.
    """
    d_types, e_types, f_types = D_TYPES, E_TYPES, F_TYPES
    d_cards = [[], [4], [4, 5, 9], [4, 5, 5, 9, 9]]
    f_cards = [[], [12]]
    e_cards = [GOOD_E[:-1], GOOD_E + [13], []]
    d_signs = [[0, 5, 5, 9], [-4, 5, 5, 9]]
    e_signs = [[0, 9, 9, 11, 11, 11, 13], [-9, -9, 9, 11, 11, 11, 13]]
    f_signs = [[0, 12, 12, 14], [-12, 12, 12, 14]]
    corpus = [(GOOD_D, GOOD_E, GOOD_F)]
    corpus += [(d, GOOD_E, GOOD_F) for d in d_types + d_cards + d_signs]
    corpus += [(GOOD_D, e, GOOD_F) for e in e_types + e_cards + e_signs]
    corpus += [(GOOD_D, GOOD_E, f) for f in f_types + f_cards + f_signs]
    for d in d_types + d_cards + d_signs + [GOOD_D]:
        for e in e_types + e_cards + e_signs + [GOOD_E]:
            for f in f_types + f_cards + f_signs + [GOOD_F]:
                corpus.append((d, e, f))
    # positivity behind a cardinality fault, and in all three at once
    corpus += [([0, 1, 2], [0] * 5, [0, 0]), ([0, 1, 2, 3], [0] * 5, [0, 0]), ([1, 1, 1, 1], [0] * 6, [-1] * 3)]
    return corpus


def test_from_values_and_from_json_raise_the_composed_messages_in_order():
    corpus = _fault_corpus()
    kinds = set()
    for d, e, f in corpus:
        expected = _outcome(_composed, d, e, f)
        assert _outcome(AciBetti.from_values, d, e, f) == expected, (d, e, f)
        data = {"D": d, "E": e, "F": f}
        copies = {key: list(values) for key, values in data.items()}
        expected_json = _outcome(_json_oracle, data)
        assert _outcome(AciBetti.from_json, data) == expected_json, data
        assert data == copies  # from_json sorts copies of the arrays
        kinds.add(expected[1] if expected[0] == "error" else "ok")
    assert len(corpus) > 700
    # every fault is reached, alone and behind the faults checked before it
    assert kinds >= {
        "ok",
        *(f"multiset values must be ints, got {bad!r}" for bad in D_TYPES + E_TYPES + F_TYPES),
        "|D| must be 4, got 0",
        "|D| must be 4, got 1",
        "|D| must be 4, got 3",
        "|D| must be 4, got 5",
        "|F| must be >= 2, got 0",
        "|F| must be >= 2, got 1",
        "|E| must be |F| + 3 = 7, got 6",
        "|E| must be |F| + 3 = 7, got 8",
        "|E| must be |F| + 3 = 7, got 0",
        "D must contain positive degrees only",
        "E must contain positive degrees only",
        "F must contain positive degrees only",
    }
    # from_json's own messages, in the order of its checks
    for data, message in (
        ({"D": (4, 5, 5, 9), "E": GOOD_E, "F": GOOD_F}, "D must be an array of integers, got (4, 5, 5, 9)"),
        ({"D": [4, 5], "E": [1.5], "F": GOOD_F}, "E must be an array of integers, got [1.5]"),
        ({"D": GOOD_D, "E": GOOD_E, "F": [12, True]}, "F must be an array of integers, got [12, True]"),
        ({"D": GOOD_D, "E": GOOD_E}, "expected keys D, E, F with integer arrays: 'F'"),
        ([GOOD_D, GOOD_E, GOOD_F], "expected an object with keys D, E, F, got list"),
        ("DEF", "expected an object with keys D, E, F, got str"),
        (None, "expected an object with keys D, E, F, got NoneType"),
        (7, "expected an object with keys D, E, F, got int"),
        (1.5, "expected an object with keys D, E, F, got float"),
    ):
        assert _outcome(AciBetti.from_json, data) == ("error", message)


def _assert_same_triple(b, ref):
    assert type(b) is AciBetti and b == ref and hash(b) == hash(ref) and repr(b) == repr(ref)
    back = pickle.loads(pickle.dumps(b))
    assert back == ref and hash(back) == hash(b) and repr(back) == repr(b)
    assert b.to_json() == ref.to_json() and b.key() == ref.key()
    assert check_betti(b) == check_betti(ref)
    for field, ref_field in zip((b.d, b.e, b.f), (ref.d, ref.e, ref.f)):
        assert type(field) is IntMultiset and IntMultiset(field.entries) == field
        assert field.entries == ref_field.entries


def _assert_reads_as(b, d, e, f):
    """``b`` read as the multisets and sorted lists of the lists d, e and f,
    which the multiset module and ``sorted`` give without the classifier."""
    ref = [ms(x) for x in (d, e, f)]
    assert [m.entries for m in (b.d, b.e, b.f)] == [m.entries for m in ref]
    assert repr(b) == "AciBetti(d={!r}, e={!r}, f={!r})".format(*ref)
    d, e, f = sorted(d), sorted(e), sorted(f)
    assert (b.d_vals, b.e_vals, b.f_vals) == (tuple(d), tuple(e), tuple(f))
    assert b.to_json() == {"D": d, "E": e, "F": f}
    assert b.key() == (sum(d), tuple(d), tuple(f), tuple(e))


def test_from_values_builds_the_composed_triple():
    """The one-pass objects equal the composition's in every way they are read,
    and each field passes the validating multiset constructor."""
    corpus = _verdict_corpus()
    for d, e, f in corpus:
        ref = _composed(d, e, f)
        _assert_reads_as(ref, d, e, f)
        for b in (AciBetti.from_values(d, e, f), AciBetti.from_json({"D": d, "E": e, "F": f})):
            _assert_same_triple(b, ref)
            _assert_reads_as(b, d, e, f)
    shuffled = random.Random(35)
    kinds = set()
    for convert in (tuple, iter, set, lambda x: reversed(x), lambda x: shuffled.sample(x, len(x))):
        for d, e, f in corpus[::7]:
            expected = _outcome(_composed, convert(d), convert(e), convert(f))
            got = _outcome(AciBetti.from_values, convert(d), convert(e), convert(f))
            if expected[0] == "ok":
                assert got[0] == "ok", (d, e, f)
                _assert_same_triple(got[1], expected[1])
            else:
                assert got == expected, (d, e, f)
            kinds.add(expected[0])
    assert kinds == {"ok", "error"}  # set() drops repeats, which breaks some cardinalities
    for d, e, f in corpus[::7]:
        data = {key: shuffled.sample(values, len(values)) for key, values in zip("DEF", (d, e, f))}
        copies = {key: list(values) for key, values in data.items()}
        _assert_same_triple(AciBetti.from_json(data), _composed(d, e, f))
        assert data == copies  # from_json sorts copies of the arrays
    b = AciBetti.from_values(range(1, 5), range(3, 8), range(4, 6))
    _assert_same_triple(b, _composed(range(1, 5), range(3, 8), range(4, 6)))
    assert b.to_json() == {"D": [1, 2, 3, 4], "E": [3, 4, 5, 6, 7], "F": [4, 5]}


def test_from_values_and_from_json_do_not_rerun_the_constructors(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a validating constructor ran")

    monkeypatch.setattr(AciBetti, "__init__", refuse)
    monkeypatch.setattr(IntMultiset, "__init__", refuse)
    b = AciBetti.from_values(iter(GOOD_D), GOOD_E[::-1], tuple(GOOD_F))
    assert AciBetti.from_json({"D": GOOD_D, "E": GOOD_E, "F": GOOD_F[::-1]}) == b
    assert b.to_json() == {"D": GOOD_D, "E": GOOD_E, "F": GOOD_F}


def test_deciding_builds_no_multiset_or_run(monkeypatch):
    """Building triples, deciding them and enumerating build no multiset and
    encode no (value, multiplicity) run, stage-1 witnesses included: a
    clause-2 failure keeps what d - F misses and a clause-3 failure keeps
    Ehat and what it should be, each as a sorted int tuple.  d, e, f and
    a failure's reason build their multisets when read."""

    def refuse(*args):
        raise AssertionError("a multiset or run was built")

    corpus = _verdict_corpus()
    with monkeypatch.context() as patch:
        patch.setattr(IntMultiset, "from_values", refuse)
        patch.setattr(IntMultiset, "_trusted", refuse)
        patch.setattr(IntMultiset, "__init__", refuse)
        triples = [AciBetti.from_values(d, e, f) for d, e, f in corpus]
        assert triples == [AciBetti.from_json({"D": d, "E": e, "F": f}) for d, e, f in corpus]
        failures = [v.failure for v in map(check_betti, triples) if v.stage == 1]
        emitted = list(enumerate_admissible(10, 4))
    assert {failure.clause for failure in failures} == {2, 3} and len(emitted) == 426
    for failure in failures:
        assert len(failure.vals) == failure.clause - 1, failure
        for vals in failure.vals:
            assert type(vals) is tuple and {int}.issuperset(map(type, vals)), failure
            assert list(vals) == sorted(vals), failure
    assert all(b.d == ms(b.d_vals) and b.e == ms(b.e_vals) and b.f == ms(b.f_vals) for b in emitted)


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------


def test_decompose_domination_case():
    dec = decompose(betti(CASE_REJECT_DOMINATION))
    assert dec.d == 21 and dec.d0 == 3
    assert dec.theta_z == 18 and dec.theta_g == 15
    assert dec.s == ms([6, 6, 6]) and dec.dbar == ms([])
    assert dec.ehat == ms([12, 12, 12])
    assert dec.t == ms([])


def test_decompose_strictness_case():
    dec = decompose(betti(CASE_REJECT_STRICTNESS))
    assert dec.theta_z == 17 and dec.theta_g == 15 and dec.d == 19
    assert dec.s == ms([7]) and dec.dbar == ms([5, 5]) and dec.ehat == ms([7, 7, 10])


def test_decompose_admissible_case():
    dec = decompose(betti(CASE_ADMISSIBLE))
    assert dec.d == 23 and dec.d0 == 4 and dec.theta_z == 19
    assert dec.ehat == ms([9, 9, 13]) and dec.s == ms([]) and dec.dbar == ms([5, 5, 9])


def test_decompose_ghost_case():
    dec = decompose(betti(CASE_ADMISSIBLE_GHOST))
    assert dec.s == ms([9]) and dec.dbar == ms([5, 5]) and dec.ehat == ms([9, 9, 10])


def test_decompose_failure_clause_2():
    # d - F = {8,11,11,11} but E has no 8
    bad = AciBetti.from_values([4, 5, 5, 9], [9, 9, 9, 11, 11, 11, 13], [12, 12, 12, 15])
    out = decompose(bad)
    assert isinstance(out, AciTypeFailure) and out.clause == 2


def test_decompose_failure_clause_3():
    # keep d - F inside E but break the Ehat split
    bad = AciBetti.from_values([4, 5, 5, 9], [9, 9, 9, 9, 11, 11, 11], [12, 12, 12, 14])
    out = decompose(bad)
    assert isinstance(out, AciTypeFailure) and out.clause == 3


def test_decompose_invariants():
    for case in (CASE_REJECT_DOMINATION, CASE_REJECT_STRICTNESS, CASE_ADMISSIBLE, CASE_ADMISSIBLE_GHOST):
        b = betti(case)
        dec = decompose(b)
        assert dec.dstar == dec.s.sum(dec.dbar)
        assert b.e == b.f.affine(dec.d, -1).sum(dec.ehat)
        assert dec.theta_g == dec.theta_z - dec.d0
        assert dec.d == dec.d0 + dec.theta_z


# ----------------------------------------------------------------------
# induced Gorenstein data
# ----------------------------------------------------------------------


def test_induced_gorenstein_examples():
    for case in (CASE_REJECT_DOMINATION, CASE_ADMISSIBLE, CASE_ADMISSIBLE_GHOST):
        b = betti(case)
        beta = induced_gorenstein(decompose(b), b.f)
        assert beta.gens == ms([5, 5, 5, 7, 7, 7, 9])
        assert beta.theta == 15


def test_induced_gorenstein_syzygy_duality():
    for case in (CASE_REJECT_STRICTNESS, CASE_ADMISSIBLE):
        b = betti(case)
        beta = induced_gorenstein(decompose(b), b.f)
        assert beta.syzygies() == beta.gens.affine(beta.theta, -1)


def test_induced_gorenstein_parity_failure():
    b = AciBetti.from_values([2, 3, 3, 3], [5, 5, 5, 5, 6, 6], [5, 5, 6])
    out = induced_gorenstein(decompose(b), b.f)
    assert isinstance(out, GorensteinFailure) and out.kind == "parity"


def test_induced_gorenstein_gaeta_diesel_failure():
    # F = {5,6} gives G0 = {3,3,3,3,4} with theta 8 <= h_2 + h_5 = 7... theta=8>7: pick worse
    b = AciBetti.from_values([2, 3, 3, 3], [5, 5, 5, 4, 7], [4, 7])
    dec = decompose(b)
    assert not isinstance(dec, AciTypeFailure)
    out = induced_gorenstein(dec, b.f)
    assert isinstance(out, GorensteinFailure) and out.kind == "gaeta_diesel"


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------


def test_check_betti_domination_reject():
    v = check_betti(betti(CASE_REJECT_DOMINATION))
    assert not v.admissible and v.stage == 3
    assert v.witness == "(6,6,6) ≱ (5,5,7)"
    assert v.beta_g.gens == ms([5, 5, 5, 7, 7, 7, 9]) and v.beta_g.theta == 15
    assert v.mci == (5, 5, 7)


def test_check_betti_strictness_reject():
    v = check_betti(betti(CASE_REJECT_STRICTNESS))
    assert not v.admissible and v.stage == 3
    assert v.witness == "s=7, i=3, d_3=7 not > e_3=7"
    assert v.mci == (5, 5, 7)


def test_check_betti_admissible_cases():
    for case in (CASE_ADMISSIBLE, CASE_ADMISSIBLE_GHOST):
        v = check_betti(betti(case))
        assert v.admissible and v.stage is None
        assert v.mci == (5, 5, 7)


def test_check_betti_stage_1():
    bad = AciBetti.from_values([4, 5, 5, 9], [9, 9, 9, 11, 11, 11, 13], [12, 12, 12, 15])
    v = check_betti(bad)
    assert not v.admissible and v.stage == 1 and v.beta_g is None


def test_check_betti_stage_2():
    v = check_betti(AciBetti.from_values([2, 3, 3, 3], [5, 5, 5, 5, 6, 6], [5, 5, 6]))
    assert not v.admissible and v.stage == 2 and "parity" in v.witness


def test_check_betti_encoding_independent():
    shuffled = AciBetti.from_values(
        [9, 5, 4, 5], [13, 9, 11, 9, 11, 9, 11], [14, 12, 12, 12]
    )
    assert shuffled == betti(CASE_ADMISSIBLE)
    assert check_betti(shuffled).admissible


def test_verdict_json():
    v = check_betti(betti(CASE_REJECT_DOMINATION))
    data = v.to_json()
    assert data["admissible"] is False and data["stage"] == 3
    assert data["beta_G"] == {"gens": [5, 5, 5, 7, 7, 7, 9], "theta": 15}
    assert data["mci"] == [5, 5, 7]


# ----------------------------------------------------------------------
# linkage bookkeeping
# ----------------------------------------------------------------------


def test_link_five_points_in_2_2_8():
    res = link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 2, 8), ms([8]))
    assert res.d0 == 7 and res.d == 19
    assert res.d_level == ms([2, 2, 7, 8])
    assert res.e_level == ms([4, 9, 9, 9, 9, 9, 15])
    assert res.f_level == ms([10, 10, 10, 15])
    assert res.minimal.e == ms([4, 9, 9, 9, 9, 9])
    assert res.minimal.f == ms([10, 10, 10])


def test_link_round_trip_2_2_8():
    res = link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 2, 8), ms([8]))
    v = check_betti(res.minimal)
    assert v.admissible
    assert v.mci == (2, 7, 7)
    dec = res.minimal
    d = decompose(dec)
    assert d.s.diff(d.t) == ms([8])  # strictness slot 8 > 7 carried the check


def test_link_straight_mapping_cone():
    res = link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 2, 2))
    assert res.d0 == 1
    assert res.minimal.d == ms([1, 2, 2, 2])
    assert res.minimal.e == ms([3, 3, 3, 3, 3])
    assert res.minimal.f == ms([4, 4])
    assert res.e_level == res.minimal.e  # no ghosts without bordered pairs
    assert check_betti(res.minimal).admissible


def test_link_degenerate_d0():
    # type (1,2,2), with 1 added as a bordered pair, gives theta_z = 5 = theta, so d0 = 0
    with pytest.raises(ValueError, match="degenerate"):
        link_betti(ms([2, 2, 2, 2, 2]), 5, (1, 2, 2), ms([1]))


def test_link_residual_too_small():
    with pytest.raises(ValueError, match="residual"):
        link_betti(ms([1, 1, 1]), 3, (1, 1, 1))
    with pytest.raises(ValueError, match="residual"):
        link_betti(ms([2, 2, 2]), 6, (2, 2, 6), ms([6]))


def test_link_slot_mismatch():
    with pytest.raises(ValueError, match="slot"):
        link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 2, 8))
    with pytest.raises(ValueError, match="slot"):
        link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 2, 2), ms([8]))


def test_link_theta_validated():
    with pytest.raises(ValueError):
        link_betti(ms([2, 2, 2, 2, 2]), 6, (2, 2, 2))


def test_link_refuses_a_ci_type_of_two_degrees():
    with pytest.raises(ValueError, match="ci_type must have exactly three degrees"):
        link_betti(ms([2, 2, 2, 2, 2]), 5, (2, 3))


def test_link_refuses_inadmissible_gens():
    # theta = 5 is consistent with the degrees, which fail Gaeta-Diesel
    message = "inadmissible Gorenstein Betti sequence: theta = 5 <= h_2 + h_5 = 6"
    with pytest.raises(ValueError) as exc:
        link_betti(ms([1, 1, 1, 2, 5]), 5, (1, 2, 5))
    assert str(exc.value) == message


def test_link_output_passes_check_betti_on_corpus():
    """Construction-side-valid linkage data always yields admissible output.

    Valid means the regular sequence exists and the cone is minimal: the
    type dominates mci, members designated non-minimal satisfy the strict
    domination pattern, and no designated-minimal member collides with the
    dual pairing (which would make the mapping cone cancel further).
    """
    from bettiforge.gorenstein import mci

    rng = random.Random(2024)
    produced = 0
    attempts = 0
    while produced < 60 and attempts < 5000:
        attempts += 1
        beta = random_admissible(rng)
        gens = beta.gens.values()
        e = mci(beta)
        choice = sorted(rng.sample(gens, 3))
        extra_vals = []
        if rng.random() < 0.4:
            # a non-minimal member strictly above every generator degree
            bump = max(gens) + rng.randint(1, 3)
            choice = sorted(choice[:2] + [bump])
            extra_vals = [bump]
        if any(choice[i] < e[i] for i in range(3)):
            continue
        theta_z = sum(choice)
        if theta_z <= beta.theta:
            continue
        if beta.gens.card() + len(extra_vals) < 5:
            continue  # residual would drop below almost-complete-intersection shape
        extra = ms(extra_vals)
        dstar = ms(choice)
        dbar = dstar.diff(extra)
        # generic regime: the canonical overlap must be exactly the
        # designated non-minimal members
        canonical = dstar.intersect(dbar.affine(beta.theta, -1).sum(extra))
        if canonical != extra:
            continue
        f_card = beta.gens.card() + 2 * len(extra_vals) - 3
        t = ms(aci._t_values(beta.theta, tuple(extra.values()), f_card, dbar.card()))
        strict_ok = True
        for s_val, mult in extra.diff(t).entries:
            first = next(j for j in range(1, 4) if choice[j - 1] == s_val)
            i = first + mult - 1
            if not choice[i - 1] > e[i - 1]:
                strict_ok = False
        if not strict_ok:
            continue
        res = link_betti(beta.gens, beta.theta, tuple(choice), extra)
        produced += 1
        assert check_betti(res.minimal).admissible, (beta, choice, res.minimal)
    assert produced == 60


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_enumerate_too_small_bounds():
    assert list(enumerate_admissible(2, 2)) == []


@pytest.mark.parametrize("max_degree, max_f", [(0, 5), (5, 1)])
def test_enumerate_below_the_least_bounds_lists_no_d(monkeypatch, max_degree, max_f):
    """No degree is below 1 and no |F| below 2 (the CLI exits 2 on both), so
    the stream is empty and ends before any D is listed."""
    monkeypatch.setattr(aci, "_sorted_d_tuples", lambda max_degree: pytest.fail("D tuples listed"))
    assert list(enumerate_admissible(max_degree, max_f)) == []


def test_enumerate_small_bounds():
    out = list(enumerate_admissible(6, 2))
    assert len(out) == 12
    keys = [b.key() for b in out]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for b in out:
        assert check_betti(b).admissible
        assert max(b.d.max(), b.e.max(), b.f.max()) <= 6
        assert b.f.card() == 2


def test_enumerate_brute_force_equivalence_tiny():
    """Exhaustive scan over every cardinality-valid triple within (5, 2)."""
    from itertools import combinations_with_replacement as cwr

    admissible = set()
    for d in cwr(range(1, 6), 4):
        for f in cwr(range(1, 6), 2):
            for e in cwr(range(1, 6), 5):
                b = AciBetti.from_values(d, e, f)
                if check_betti(b).admissible:
                    admissible.add((d, tuple(e), f))
    got = {(tuple(b.d.values()), tuple(b.e.values()), tuple(b.f.values()))
           for b in enumerate_admissible(5, 2)}
    assert got == admissible


def test_enumerate_jobs_identical():
    seq = [b.to_json() for b in enumerate_admissible(6, 2)]
    par = [b.to_json() for b in enumerate_admissible(6, 2, jobs=2)]
    assert seq == par


def test_worker_count_validates_and_clamps(monkeypatch):
    """The clamp is the CPUs of the affinity mask where os reports one, else os.cpu_count()."""
    assert worker_count(1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert [worker_count(j) for j in (1, 2, 3, 64, 10**6)] == [1, 2, 2, 2, 2]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert [worker_count(j) for j in (1, 2, 3, 64, 10**6)] == [1, 2, 3, 64, 64]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(10**6) == 1
    for bad in (0, -3, True, 2.0):
        with pytest.raises(ValueError, match="jobs"):
            worker_count(bad)
    with pytest.raises(ValueError, match="jobs"):
        next(enumerate_admissible(6, 2, jobs=0))


@pytest.mark.parametrize("max_degree, max_f", [(8, 3.0), (8.5, 3), (8, True), (True, 3), ("8", 3), (8, None)])
def test_enumerate_refuses_bounds_that_are_not_ints(max_degree, max_f):
    with pytest.raises(ValueError, match="max_degree and max_f must be integers"):
        next(enumerate_admissible(max_degree, max_f))


def test_enumerate_self_check_is_live(monkeypatch):
    """Every emitted pair is re-decided on its tuples by _decide, check_betti's core, which here rejects it."""
    monkeypatch.setattr(aci, "_decide", lambda d, e, f: aci.Verdict(False, stage=1))
    with pytest.raises(AssertionError):
        list(enumerate_admissible(6, 3, jobs=1))


@pytest.mark.parametrize("bad_f", [(7,), (0, 7)], ids=["one entry", "degree 0"])
def test_enumerate_self_check_applies_the_triple_checks(monkeypatch, bad_f):
    """The self-check applies AciBetti's checks to the tuples before it
    decides them: with _decide admitting everything, an F of one entry or
    with a degree 0 from the search still stops the stream in the
    self-check, before enumerate_admissible builds any AciBetti."""
    monkeypatch.setattr(aci, "_admissible_f_tuples", lambda dvals, w: [bad_f])
    monkeypatch.setattr(aci, "_decide", lambda d, e, f: aci.Verdict(True))
    with pytest.raises(AssertionError):
        list(enumerate_admissible(6, 3, jobs=1))
    with pytest.raises(ValueError):  # AciBetti refuses the same F at the library boundary
        AciBetti.from_values([1, 2, 2, 2], [3, 3, 3, 3, 3, 3][: len(bad_f) + 3], bad_f)


def test_enumerate_search_tree_is_pinned(monkeypatch):
    """mci_from_sorted runs once per complete G0 of the F search and once per
    self-check: 3,239 calls at (12, 5), for 1,722 complete G0 and 1,517
    emitted triples.  Before the last pair was bounded by stage 3 the
    search completed 3,439 G0 (test_last_pair_stage3_bound).  The search
    builds G0 from its Gaeta-Diesel pair sums, so gaeta_diesel_violation
    runs only in the self-check, once per triple."""
    calls = {"mci_from_sorted": 0, "gaeta_diesel_violation": 0}

    def counted(name, fn):
        def wrapper(h, theta):
            calls[name] += 1
            return fn(h, theta)

        return wrapper

    monkeypatch.setattr(aci, "mci_from_sorted", counted("mci_from_sorted", mci_from_sorted))
    monkeypatch.setattr(aci, "gaeta_diesel_violation", counted("gaeta_diesel_violation", gaeta_diesel_violation))
    assert len(list(enumerate_admissible(12, 5))) == 1517
    assert calls == {"mci_from_sorted": 3239, "gaeta_diesel_violation": 1517}


# NDJSON of the stream as the CLI prints it, recorded before the F search
# was pruned; (14, 5) recorded before the stage-3 cut at inner nodes
@pytest.mark.parametrize(
    "max_degree, max_f, lines, md5",
    [
        (12, 5, 1517, "06009033f4b7418ed137b4a717230732"),
        (10, 6, 473, "1325ff827b98e8a5af5b80a6d409e982"),
        (14, 5, 4222, "5ec4cb065530f20a25074594f5109e0b"),
    ],
)
def test_enumerate_ndjson_is_pinned(max_degree, max_f, lines, md5):
    out = [json.dumps(b.to_json(), sort_keys=True) + "\n" for b in enumerate_admissible(max_degree, max_f)]
    assert len(out) == lines
    assert hashlib.md5("".join(out).encode()).hexdigest() == md5


@pytest.fixture(scope="module")
def admissible_14_5():
    return list(enumerate_admissible(14, 5))


def test_enumerated_hilbert_functions_are_o_sequences(admissible_14_5):
    """Macaulay's bound on the Hilbert function of every emitted triple;
    hilbert_from_resolution shares no code with check_betti."""
    assert len(admissible_14_5) == 4222
    for b in admissible_14_5:
        assert is_o_sequence(hilbert_from_resolution([b.d, b.e, b.f], 3).values), b


def test_induced_gorenstein_h_vectors_are_si_sequences(admissible_14_5):
    """Every admitted G0 gives a symmetric SI h-vector with socle degree theta_G - 3."""
    g0s = {check_betti(b).beta_g for b in admissible_14_5}
    assert len(g0s) == 921
    for g in g0s:
        h = hilbert_from_resolution(g.modules(), 3)
        assert h.socle_degree() == g.theta - 3 and is_si_sequence(h.values), g


def test_linkage_recipe_gives_back_every_enumerated_triple(admissible_14_5):
    """Linking the admitted G0 in the complete intersection of type Dstar,
    with the members of S - T as bordered pairs, gives back each emitted
    triple; link_betti shares no code with _decide."""
    assert len(admissible_14_5) == 4222
    for b in admissible_14_5:
        v, dec = check_betti(b), decompose(b)
        assert link_betti(v.beta_g.gens, v.theta_g, dec.dstar.values(), dec.s.diff(dec.t)).minimal == b, b


def test_hilbert_oracles_can_fail():
    assert not is_o_sequence((1, 3, 7))  # 3^<1> = 6
    assert is_o_sequence((1, 3, 3, 4, 3, 3, 1)) and not is_si_sequence((1, 3, 3, 4, 3, 3, 1))


def test_enumerated_betti_tables_cancel_from_lex(admissible_14_5):
    """Every emitted triple comes from the lex table of its Hilbert function
    by consecutive cancellations; lex_betti and cancels_from_lex share no
    code with check_betti or the F search."""
    for b in admissible_14_5:
        h = hilbert_from_resolution([b.d, b.e, b.f], 3).values
        assert cancels_from_lex(h, b.d.values(), b.e.values(), b.f.values()), b


@pytest.mark.parametrize(
    "d, e, f, stage",
    [
        ([1, 2, 2, 4], [3, 3, 3, 4, 4], [3, 5], 1),
        ([1, 2, 2, 2], [2, 3, 3, 3, 4], [3, 5], 2),
        ([1, 1, 2, 3], [2, 3, 3, 3, 4, 5], [4, 4, 5], 3),
    ],
)
def test_lex_cancellation_oracle_can_fail(d, e, f, stage):
    """Rejected triples whose Hilbert functions are O-sequences, and which no
    cancellation of the lex table reaches."""
    b = AciBetti.from_values(d, e, f)
    h = hilbert_from_resolution([b.d, b.e, b.f], 3).values
    assert check_betti(b).stage == stage and is_o_sequence(h)
    assert not cancels_from_lex(h, d, e, f)


def test_lex_betti_of_the_square_of_the_maximal_ideal():
    assert lex_betti((1, 3)) == {(1, 2): 6, (2, 3): 8, (3, 4): 3}


# verdict counts and md5 of the verdict lines of _verdict_corpus(),
# recorded before check_betti moved to count dicts
VERDICT_KINDS = {
    "admissible": 280,
    "clause2": 297,
    "clause3": 302,
    "parity": 139,
    "gaeta_diesel": 129,
    "socle": 32,
    "stage3": 21,
}
VERDICT_MD5 = "15a6ebf9f80d183bdd0e0d3bed6d6c37"


def _verdict_corpus(seed=2026, per_stratum=300):
    """Seeded (D, E, F) triples in four strata, as plain lists.

    * random E, which mostly misses part of d - F (clause 2);
    * E = (d - F) + three random degrees, which mostly do not split (clause 3);
    * E = (d - F) + (d0 + Dbar) + (theta_z - S) for a random S, which
      decomposes and is mostly rejected in stage 2;
    * linkage of a sampled admissible Gorenstein sequence in three of its
      generator degrees, which mostly reaches stage 3 or passes.
    """
    rng = random.Random(seed)
    out = []
    for i in range(3 * per_stratum):
        d = sorted(rng.randint(1, 9) for _ in range(4))
        d0, dstar, dsum = d[0], d[1:], sum(d)
        theta_z = dsum - d0
        f = sorted(rng.randint(1, dsum - 1) for _ in range(rng.randint(2, 6)))
        if i % 3 == 0:
            e = [rng.randint(1, dsum) for _ in range(len(f) + 3)]
        elif i % 3 == 1:
            e = [dsum - x for x in f] + [rng.randint(1, dsum) for _ in range(3)]
        else:
            s = [x for x in dstar if rng.random() < 0.4]
            dbar = list(dstar)
            for x in s:
                dbar.remove(x)
            e = [dsum - x for x in f] + [d0 + x for x in dbar] + [theta_z - x for x in s]
        out.append((d, sorted(e), f))
    while len(out) < 4 * per_stratum:
        beta = random_admissible(rng)
        gens = beta.gens.values()
        picks = set(rng.sample(range(len(gens)), 3))
        ci = [gens[j] for j in sorted(picks)]
        slots = [gens[j] for j in range(len(gens)) if j not in picks]
        d0 = sum(ci) - beta.theta
        if d0 < 1:
            continue
        dsum = d0 + sum(ci)
        e = [c + d0 for c in ci] + [x + d0 for x in slots]
        out.append((sorted(ci + [d0]), sorted(e), sorted(dsum - x for x in e[3:])))
    return out


def _verdict_kind(v):
    if v.admissible:
        return "admissible"
    if v.stage == 1:
        return "clause2" if v.witness.startswith("(d - F)") else "clause3"
    if v.stage == 2:
        return v.witness.split(":")[0]
    return "stage3"


def test_check_betti_verdicts_are_pinned():
    """Every verdict and witness string of a corpus reaching every verdict kind."""
    lines = []
    kinds = {}
    for d, e, f in _verdict_corpus():
        v = check_betti(AciBetti.from_values(d, e, f))
        kind = _verdict_kind(v)
        kinds[kind] = kinds.get(kind, 0) + 1
        lines.append(json.dumps(v.to_json(), sort_keys=True))
    assert kinds == VERDICT_KINDS
    assert hashlib.md5("\n".join(lines).encode()).hexdigest() == VERDICT_MD5


def test_decisions_format_no_multiset(monkeypatch):
    """Deciding builds no witness text; reading the witnesses afterwards gives the pinned lines."""

    def refuse(self):
        raise AssertionError("a multiset was formatted while deciding")

    corpus = [AciBetti.from_values(d, e, f) for d, e, f in _verdict_corpus()]
    with monkeypatch.context() as patch:
        patch.setattr(IntMultiset, "__str__", refuse)
        verdicts = [check_betti(b) for b in corpus]
    lines = [json.dumps(v.to_json(), sort_keys=True) for v in verdicts]
    assert hashlib.md5("\n".join(lines).encode()).hexdigest() == VERDICT_MD5


def _one_triple_per_verdict_kind():
    seen = {}
    for d, e, f in _verdict_corpus():
        b = AciBetti.from_values(d, e, f)
        seen.setdefault(_verdict_kind(check_betti(b)), b)
    assert set(seen) == set(VERDICT_KINDS)
    return list(seen.values())


def test_verdicts_of_equal_decisions_are_equal():
    for b in _one_triple_per_verdict_kind():
        first, second = check_betti(b), check_betti(b)
        assert first == second and hash(first) == hash(second), first


def test_verdicts_pickle():
    for b in _one_triple_per_verdict_kind():
        v = check_betti(b)
        back = pickle.loads(pickle.dumps(v))
        assert back == v and back.witness == v.witness, v


def test_check_betti_builds_beta_g_when_read(monkeypatch):
    """Deciding builds no multiset; beta_g, built on each read, is the induced G0."""

    def refuse(*args):
        raise AssertionError("a multiset was built while deciding")

    corpus = _one_triple_per_verdict_kind()
    with monkeypatch.context() as patch:
        patch.setattr(IntMultiset, "_trusted", refuse)
        patch.setattr(IntMultiset, "__init__", refuse)
        verdicts = [check_betti(b) for b in corpus]
    for b, v in zip(corpus, verdicts):
        if v.stage in (1, 2):
            assert v.beta_g is None and v.g0 is None, v
            continue
        expected = induced_gorenstein(decompose(b), b.f)
        assert v.beta_g == expected and v.beta_g is not v.beta_g, v
        assert v.g0 == tuple(expected.gens.values()) and v.theta_g == expected.theta


def test_every_gorenstein_betti_handed_out_is_checked(monkeypatch):
    """Each read of beta_g and each induced_gorenstein call runs the
    Gaeta-Diesel check once, on the G0 it hands out."""
    checked = []

    def counting(gens):
        checked.append(gens)
        return check_gorenstein_betti(gens)

    admitted = [(b, v) for b, v in ((b, check_betti(b)) for b in _one_triple_per_verdict_kind()) if v.g0]
    assert {v.stage for _, v in admitted} == {None, 3}
    monkeypatch.setattr(gorenstein, "check_gorenstein_betti", counting)
    for b, v in admitted:
        del checked[:]
        beta_g = v.beta_g
        assert checked == [ms(v.g0)] and beta_g.gens == ms(v.g0), v
        del checked[:]
        induced = induced_gorenstein(decompose(b), b.f)
        assert checked == [ms(v.g0)] and induced == beta_g, v


def _decompose_by_multiset_algebra(b):
    """decompose spelled out with IntMultiset operations: the reference.

    A failure is given as its (clause, reason) pair.
    """
    shifted_f = b.f.affine(b.d.norm(), -1)
    if not shifted_f.is_submultiset(b.e):
        return 2, f"(d - F) is not a submultiset of E: missing {shifted_f.diff(b.e)}"
    ehat = b.e.diff(shifted_f)
    d0 = b.d.min()
    dstar = b.d.diff(ms([d0]))
    theta_z = dstar.norm()
    s = dstar.intersect(ehat.affine(theta_z, -1))
    dbar = dstar.diff(s)
    expected = dbar.affine(d0, 1).sum(s.affine(theta_z, -1))
    if ehat != expected:
        return 3, f"Ehat = {ehat} differs from (d0 + Dbar) + (theta_z - S) = {expected}"
    t = aci._t_values(theta_z - d0, tuple(s.values()), b.f.card(), dbar.card())
    dstar, ehat, s, dbar = (tuple(m.values()) for m in (dstar, ehat, s, dbar))
    return aci.AciDecomposition(d0, dstar, theta_z, ehat, s, dbar, t, theta_z - d0, b.d.norm())


def _stage3_violation(dvals, e, strict):
    """First failed mci comparison, or None if the linkage type dominates: the
    reference for stage 3 as the paper states it.

    ``dvals`` is the sorted type d_1 <= d_2 <= d_3, ``e`` the mci triple,
    ``strict`` the runs of S - T, the degrees whose chosen regular-sequence
    members are forced non-minimal, so domination must be strict at the index
    min{j | d_j = s} + multiplicity(s) - 1.  A violation is reported as
    (i, None) for the first 1-based i with d_i < e_i, or as (i, s) when
    d_i > e_i fails at the strict index of s.
    """
    for i in range(3):
        if dvals[i] < e[i]:
            return i + 1, None
    for s_val, mult in strict:
        i = dvals.index(s_val) + mult  # strict ⊆ S ⊆ Dstar, so s is in dvals
        if dvals[i - 1] <= e[i - 1]:
            return i, s_val
    return None


def _caps_by_reference(dvals, strict):
    """The largest mci triple the reference admits.  Each of its comparisons
    reads one index, so cap i is the largest e_i that passes with the other
    two entries at 0 (every d_j is positive)."""
    caps = []
    for i in range(3):
        probes = ([x if j == i else 0 for j in range(3)] for x in range(dvals[i] + 1))
        caps.append(max(e[i] for e in probes if _stage3_violation(dvals, e, strict) is None))
    return tuple(caps)


def test_decompose_matches_multiset_algebra():
    outcomes = set()
    for d, e, f in _verdict_corpus(seed=7, per_stratum=150):
        b = AciBetti.from_values(d, e, f)
        got = decompose(b)
        outcomes.add(getattr(got, "clause", 0))
        if isinstance(got, AciTypeFailure):
            got = got.clause, got.reason
        assert got == _decompose_by_multiset_algebra(b), (d, e, f)
    assert outcomes == {0, 2, 3}


def test_decompose_matches_multiset_algebra_on_streams():
    """decompose equals the reference and hashes as it does on the admitted
    (12, 5) stream and on the check-mix strata, clause-2 and clause-3
    failures included."""
    outcomes = {0: 0, 2: 0, 3: 0}
    triples = list(enumerate_admissible(12, 5))
    triples += [AciBetti.from_values(d, e, f) for d, e, f in _check_mix_triples(1)]
    for b in triples:
        got = decompose(b)
        ref = _decompose_by_multiset_algebra(b)
        if isinstance(got, AciTypeFailure):
            assert (got.clause, got.reason) == ref, b
            outcomes[got.clause] += 1
        else:
            assert got == ref and hash(got) == hash(ref), b
            outcomes[0] += 1
    assert outcomes[0] > 4000 and outcomes[2] >= 1000 and outcomes[3] >= 1000, outcomes


_MULTISET_FIELDS = ("dstar", "ehat", "s", "dbar", "t")
WORKED_CASES = (CASE_REJECT_DOMINATION, CASE_REJECT_STRICTNESS, CASE_ADMISSIBLE, CASE_ADMISSIBLE_GHOST)


def _decomposable(triples):
    out = []
    for d, e, f in triples:
        b = AciBetti.from_values(d, e, f)
        if not isinstance(decompose(b), AciTypeFailure):
            out.append(b)
    return out


def test_decomposition_contract():
    """A decomposition keeps sorted value tuples and builds its multisets
    when read; it compares, hashes and pickles by value."""
    cases = [betti(case) for case in WORKED_CASES]
    corpus = _decomposable(_verdict_corpus())
    assert len(corpus) > 500
    seen = {}
    for b in cases + corpus:
        dec, again, ref = decompose(b), decompose(b), _decompose_by_multiset_algebra(b)
        for name in _MULTISET_FIELDS:
            got = getattr(dec, name)
            assert type(got) is IntMultiset and IntMultiset(got.entries) == got, (b, name)
            assert got == getattr(ref, name), (b, name)
        assert dec == again == ref and hash(dec) == hash(again) == hash(ref), b
        back = pickle.loads(pickle.dumps(dec))
        assert back == dec and all(getattr(back, n) == getattr(dec, n) for n in _MULTISET_FIELDS), b
        seen[dec] = b
    distinct = list(seen)
    assert len(distinct) > 100
    for i, a in enumerate(distinct[:60]):
        for other in distinct[i + 1 : 60]:
            assert a != other and tuple(a) != tuple(other)
    dec = decompose(cases[2])
    assert dec._replace(theta_g=dec.theta_g + 1) != dec
    for name in _MULTISET_FIELDS:
        grown = tuple(IntMultiset.from_values(getattr(dec, name).values() + [99]).values())
        assert dec._replace(**{name + "_vals": grown}) != dec, name


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _check_mix_items(seed):
    """The check-mix stream of the benchmark for ``seed``, as (stratum, D, E, F)
    with D, E and F lists, and the stratum of a linked triple."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.check_mix(seed), inputs.LINKED


def _check_mix_triples(seed):
    """The check-mix stream of the benchmark for ``seed``, as (D, E, F) lists."""
    return [(d, e, f) for _, d, e, f in _check_mix_items(seed)[0]]


@pytest.mark.parametrize("seed", [1, 7])
def test_check_mix_verdicts_match_the_benchmark_digests(seed):
    """Every verdict of the check-mix stream, as the benchmark checks it: the
    md5 of the sorted-key JSON lines of its verdicts and the admissible /
    stage-3 split of its linked triples, recorded in bench/check_mix_refs.txt."""
    refs = {}
    for line in (BENCH / "check_mix_refs.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            ref_seed, md5, admissible, stage3 = line.split()
            refs[int(ref_seed)] = (md5, int(admissible), int(stage3))
    items, linked = _check_mix_items(seed)
    verdicts = [check_betti(AciBetti.from_values(d, e, f)) for _, d, e, f in items]
    lines = [json.dumps(v.to_json(), sort_keys=True) for v in verdicts]
    split = [v.stage for (stratum, *_), v in zip(items, verdicts) if stratum == linked]
    got = (hashlib.md5("\n".join(lines).encode()).hexdigest(), split.count(None), split.count(3))
    assert len(items) == 6000 and got == refs[seed]


def test_admitted_gorenstein_betti_equals_validated_construction():
    """An admitted G0 is wrapped without GorensteinBetti's checks; every
    admitted one here passes them and equals the validated construction."""
    admitted = 0
    for d, e, f in _verdict_corpus() + _check_mix_triples(1):
        b = AciBetti.from_values(d, e, f)
        v = check_betti(b)
        beta = v.beta_g
        if beta is None:
            continue
        assert type(beta.theta) is int and IntMultiset(beta.gens.entries) == beta.gens, (d, e, f)
        assert beta == GorensteinBetti(IntMultiset.from_values(beta.gens.values()), beta.theta), (d, e, f)
        assert check_gorenstein_betti(beta.gens).admissible, (d, e, f)
        assert induced_gorenstein(decompose(b), b.f) == beta, (d, e, f)
        admitted += v.admissible
    assert admitted >= VERDICT_KINDS["admissible"] + 1000


def test_decompositions_leave_no_room_for_b():
    """The lemma of _candidates_for_d on check_betti's side: every
    decomposition has theta_g > cap_2 + cap_3, so stage 3 admits no G0
    whose index set B is not empty, and an admitted mci triple is
    (h_0, h_1, e_3)."""
    decomposed = admitted = 0
    for b in _decomposable(_verdict_corpus()):
        dec = decompose(b)
        caps = aci._stage3_caps(dec.dstar.values(), dec.s_vals, dec.t.values())
        assert dec.theta_g > caps[1] + caps[2], b
        decomposed += 1
        v = check_betti(b)
        if v.admissible:
            h, m = v.g0, len(v.g0) // 2
            assert all(h[i] + h[2 * m + 2 - i] < v.theta_g for i in range(2, m + 1)), b
            assert v.mci[:2] == h[:2], b
            admitted += 1
    assert (decomposed, admitted) == (601, VERDICT_KINDS["admissible"])


def test_stage3_matches_reference():
    """On every decomposable triple whose G0 is admitted, check_betti's
    stage-3 decision and witness are those of the reference, run on the
    multiset-algebra decomposition with S - T built by IntMultiset.diff.
    Neither the corpus nor check-mix fails a strict index, so every F of
    the reference windows at (7, 4), unpruned and with m > cap_1, is
    checked too."""
    outcomes = {"admitted": 0, "dominance": 0, "strict": 0, "strict with T": 0}
    triples = _verdict_corpus() + _check_mix_triples(1) + _unpruned_window_triples(7, 4)
    for b in _decomposable(triples):
        v = check_betti(b)
        if v.stage == 2:
            continue
        dec = _decompose_by_multiset_algebra(b)
        dvals, e = dec.dstar.values(), mci(induced_gorenstein(dec, b.f))
        hit = _stage3_violation(dvals, e, dec.s.diff(dec.t).entries)
        if hit is None:
            assert v.admissible and v.mci == e, b
            outcomes["admitted"] += 1
            continue
        i, s_val = hit
        if s_val is None:
            expected = "({},{},{}) ≱ ({},{},{})".format(*dvals, *e)
            outcomes["dominance"] += 1
        else:
            expected = f"s={s_val}, i={i}, d_{i}={dvals[i - 1]} not > e_{i}={e[i - 1]}"
            outcomes["strict with T" if dec.t else "strict"] += 1
        assert (v.admissible, v.stage, v.witness) == (False, 3, expected), b
    assert outcomes == {"admitted": 1722, "dominance": 239, "strict": 154, "strict with T": 13}


def test_sorted_d_tuples_match_grouped_sort():
    """The lazy D tuples come in the order of the whole list grouped by
    total and sorted within each total."""
    for max_degree in range(1, 13):
        groups = {}
        for a in range(1, max_degree + 1):
            for b in range(a, max_degree + 1):
                for c in range(b, max_degree + 1):
                    for e in range(c, max_degree + 1):
                        groups.setdefault(a + b + c + e, []).append((a, b, c, e))
        expected = [t for total in sorted(groups) for t in sorted(groups[total])]
        assert list(aci._sorted_d_tuples(max_degree)) == expected, max_degree


def _submultisets(values):
    """Every distinct submultiset of a list of ints, as sorted tuples."""
    out = {()}
    for v in sorted(values):
        out |= {s + (v,) for s in out}
    return sorted(out)


def _reference_windows(dvals, max_degree, max_f):
    """Every (S, |F|) window of D with odd |G0| by the multiset algebra, m >
    cap_1 included, as (window, total) with the tail sorted.  The total is
    the sum(F) that the socle degree balance norm(G0) = m * theta_g pins."""
    d0, dstar_list = dvals[0], list(dvals[1:])
    dstar = ms(dstar_list)
    theta_z = sum(dstar_list)
    theta_g = theta_z - d0
    lo = max(1, d0 + theta_z - max_degree, d0 + 1)
    hi = min(max_degree, d0 + theta_z - 1, theta_z - 1)
    out = []
    for s_tuple in _submultisets(dstar_list):
        s = ms(s_tuple)
        dbar = dstar.diff(s)
        ehat = dbar.affine(d0, 1).sum(s.affine(theta_z, -1))
        if ehat.max() > max_degree or dstar.intersect(ehat.affine(theta_z, -1)) != s or lo > hi:
            continue
        for k in range(2, max_f + 1):
            t = ms(aci._t_values(theta_g, tuple(s.values()), k, dbar.card()))
            tail = dbar.sum(t)
            n = k + tail.card()
            if n % 2:
                caps = _caps_by_reference(dstar_list, s.diff(t).entries)
                total = k * theta_z + tail.norm() - (n // 2) * theta_g
                out.append((aci._FWindow(ehat.values(), k, lo, hi, tail.values(), caps), total))
    return out


def _searched(w):
    """Whether a window can hold a G0 with m <= h_0 <= cap_1."""
    return (w.k + len(w.tail)) // 2 <= w.caps[0]


def test_f_windows_match_multiset_algebra():
    """The int-level Ehat bound, canonical-overlap test and |F| range keep
    exactly the reference windows with m <= cap_1, in any order within D."""
    dropped = 0
    for max_degree, max_f in ((12, 5), (10, 9)):
        for dvals in aci._sorted_d_tuples(max_degree):
            ref = [w for w, _ in _reference_windows(dvals, max_degree, max_f)]
            expected = [w for w in ref if _searched(w)]
            dropped += len(ref) - len(expected)
            assert sorted(aci._f_windows(dvals, max_degree, max_f)) == sorted(expected), dvals
    assert dropped > 100


def test_windows_leave_no_room_for_b():
    """The lemma of _candidates_for_d: every window _f_windows yields has
    theta_g > cap_2 + cap_3, so stage 3 admits no G0 whose index set B is
    not empty, and the F search keeps B empty."""
    windows = 0
    for dvals in aci._sorted_d_tuples(16):
        theta_g = sum(dvals[1:]) - dvals[0]
        for w in aci._f_windows(dvals, 16, 40):
            assert theta_g > w.caps[1] + w.caps[2], (dvals, w)
            windows += 1
    assert windows == 17548


def _fixed_sum_tuples(lo, hi, k, total):
    """Every sorted k-tuple over [lo, hi] summing to total: the unpruned F search."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for v in range(max(lo, total - (k - 1) * hi), min(hi, total // k) + 1):
        for rest in _fixed_sum_tuples(v, hi, k - 1, total - v):
            yield (v,) + rest


def _unpruned_window_triples(max_degree, max_f):
    """(D, E, F) for every F of every reference window, as lists."""
    out = []
    for dvals in aci._sorted_d_tuples(max_degree):
        for w, total in _reference_windows(dvals, max_degree, max_f):
            for f in _fixed_sum_tuples(w.lo, w.hi, w.k, total):
                out.append((list(dvals), sorted([sum(dvals) - x for x in f] + w.ehat), list(f)))
    return out


def _verdict_by_keywords(b):
    """The three stages with every Verdict built by keyword: failures found
    by isinstance, Dstar and T expanded from the decomposition's multisets."""
    dec = decompose(b)
    if isinstance(dec, AciTypeFailure):
        return aci.Verdict(False, stage=1, failure=dec)
    h = aci._induced_g0(dec, b.f_vals)
    if isinstance(h, GorensteinFailure):
        return aci.Verdict(False, stage=2, failure=h)
    e = mci_from_sorted(h, dec.theta_g)
    dvals = dec.dstar.values()
    caps = aci._stage3_caps(dvals, dec.s_vals, dec.t.values())
    if all(x <= cap for x, cap in zip(e, caps)):
        return aci.Verdict(True, g0=tuple(h), theta_g=dec.theta_g, mci=e)
    return aci.Verdict(False, stage=3, failure=(tuple(dvals), caps), g0=tuple(h), theta_g=dec.theta_g, mci=e)


def test_check_betti_verdicts_equal_keyword_built_ones():
    """check_betti builds its verdicts positionally and reads Dstar off the
    sorted D; on every F of the reference windows at (7, 4), and on the
    corpus for stages 1 and 2, each verdict equals the keyword-built one,
    and a stage-3 failure names Dstar as the decomposition has it."""
    stages = {None: 0, 1: 0, 2: 0, 3: 0}
    for d, e, f in _unpruned_window_triples(7, 4) + _verdict_corpus():
        b = AciBetti.from_values(d, e, f)
        v = check_betti(b)
        assert v == _verdict_by_keywords(b), b
        if v.stage == 3:
            assert v.failure[0] == tuple(decompose(b).dstar.values()), b
        stages[v.stage] += 1
    assert stages == {None: 326, 1: 599, 2: 812, 3: 302}


def _last_pair_case(g0, tail):
    """The tail case of the last pair of a sorted G0 that holds the sorted
    tail: "m = 1", or the tail values the greedy matching of h_0 and the
    pairs before it leaves for the last pair: none, one (taken as a or as
    u), or two."""
    m = len(g0) // 2
    if m == 1:
        return "m = 1"
    tl, tr = 0, len(tail) - 1
    if tail and g0[0] == tail[0]:
        tl = 1
    for i in range(1, m):
        if tl <= tr and g0[i] == tail[tl]:
            tl += 1
        if tl <= tr and g0[2 * m + 1 - i] == tail[tr]:
            tr -= 1
    left = tr - tl + 1
    if left == 1:
        return "one as a" if g0[m] == tail[tl] else "one as u"
    return {0: "none", 2: "two"}[left]


@pytest.mark.parametrize("max_degree, max_f, lines", [(12, 5, 1517), (10, 6, 473), (10, 8, 478)])
def test_pruned_f_search_equals_filtered_full_search(max_degree, max_f, lines):
    """Over every reference window, the F search loses no F that passes
    Gaeta-Diesel and stage 3, and keeps none that fails them; a window with
    m > cap_1 holds none, and the search leaves it out.  Each tail case of
    the last pair, which the search places with the same routine as every
    other pair, holds an F in some window."""
    windows = whole_window_cuts = kept = 0
    cases = dict.fromkeys(("none", "one as a", "one as u", "two", "m = 1"), 0)
    for dvals in aci._sorted_d_tuples(max_degree):
        theta_z = sum(dvals[1:])
        theta_g = theta_z - dvals[0]
        searched = []
        for w, total in _reference_windows(dvals, max_degree, max_f):
            expected = []
            for f in _fixed_sum_tuples(w.lo, w.hi, w.k, total):
                g0 = sorted([theta_z - x for x in f] + w.tail)
                if gaeta_diesel_violation(g0, theta_g) is not None:
                    continue
                if all(x <= cap for x, cap in zip(mci_from_sorted(g0, theta_g), w.caps)):
                    expected.append(f)
            if _searched(w):
                assert aci._admissible_f_tuples(dvals, w) == expected, (dvals, w)
                searched.append(w)
            else:
                assert expected == [], (dvals, w)
                whole_window_cuts += 1
            windows += 1
            kept += len(expected)
            for case in {_last_pair_case(sorted([theta_z - x for x in f] + w.tail), w.tail) for f in expected}:
                cases[case] += 1
        assert sorted(aci._f_windows(dvals, max_degree, max_f)) == sorted(searched), dvals
    assert windows > whole_window_cuts > 0
    assert kept >= lines
    assert all(cases.values()), cases


def test_last_pair_stage3_bound(monkeypatch):
    """The last-pair cut of _candidates_for_d, on every complete G0 of the
    unpruned reference windows at (12, 5).  Wherever m >= 2 and h_{m+1} +
    h_{m+2} >= theta_g, the mci triple has e_3 >= h_{m+1}.  Every G0 whose
    index set B is not empty fails the caps, as the lemma there says.  The
    search completed 3,439 G0 without the cut: those that pass
    Gaeta-Diesel, h_0 <= cap_1 and h_1 <= cap_2 and have B empty.  The cut
    removes 1,717 of them, each with e_3 = u > cap_3, and the search now
    calls mci_from_sorted exactly on the others."""
    lemma_cases = with_b = leaves = removed = 0
    searched = []
    for dvals in aci._sorted_d_tuples(12):
        theta_z = sum(dvals[1:])
        theta_g = theta_z - dvals[0]
        for w, total in _reference_windows(dvals, 12, 5):
            cap1, cap2, cap3 = w.caps
            if _searched(w):
                searched.append((dvals, w))
            for f in _fixed_sum_tuples(w.lo, w.hi, w.k, total):
                h = sorted([theta_z - x for x in f] + w.tail)
                m = len(h) // 2
                e3 = mci_from_sorted(h, theta_g)[2]
                if m >= 2 and h[m + 1] + h[m + 2] >= theta_g:
                    assert e3 >= h[m + 1], (dvals, w, f)
                    lemma_cases += 1
                if any(h[i] + h[2 * m + 2 - i] >= theta_g for i in range(2, m + 1)):
                    e = mci_from_sorted(h, theta_g)
                    assert e[1] > cap2 or e[2] > cap3, (dvals, w, f)
                    with_b += 1
                    continue
                if gaeta_diesel_violation(h, theta_g) is not None or h[0] > cap1 or h[1] > cap2:
                    continue
                leaves += 1
                u = h[m + 1]
                if u > max(cap3, theta_g - 1 - h[m + 2] if m >= 2 else -1):
                    assert e3 == u > cap3, (dvals, w, f)
                    removed += 1
    calls = 0

    def counted(h, theta):
        nonlocal calls
        calls += 1
        return mci_from_sorted(h, theta)

    monkeypatch.setattr(aci, "mci_from_sorted", counted)
    for dvals, w in searched:
        aci._admissible_f_tuples(dvals, w)
    assert lemma_cases > 1000 and with_b > 1000
    assert (leaves, removed, calls) == (3439, 1717, 1722)


def test_f_search_keeps_the_socle_balance_whatever_the_total():
    """Every F the search returns has norm(G0) = m * theta_G, so its sum is
    the total the reference computes for its window.  The search builds G0
    from its pair sums and takes no total."""
    dvals = (2, 3, 3, 5)
    w = aci._FWindow([5, 5, 6], 3, 4, 9, [3, 3], (3, 3, 4))
    assert w in list(aci._f_windows(dvals, 9, 4))
    assert (w, 21) in _reference_windows(dvals, 9, 4)
    assert aci._admissible_f_tuples(dvals, w) == [(6, 7, 8), (7, 7, 7)]
    windows_with_f = 0
    for dvals in aci._sorted_d_tuples(10):
        theta_z = sum(dvals[1:])
        theta_g = theta_z - dvals[0]
        for w, total in _reference_windows(dvals, 10, 5):
            if not _searched(w):
                continue
            found = aci._admissible_f_tuples(dvals, w)
            m = (w.k + len(w.tail)) // 2
            for f in found:
                assert sum(theta_z - x for x in f) + sum(w.tail) == m * theta_g, (dvals, w, f)
                assert sum(f) == total, (dvals, w, f)
            windows_with_f += bool(found)
    assert windows_with_f > 100


def test_window_with_m_above_cap_1_is_empty():
    """h_0 lies in [m, cap_1], so a window with m > cap_1 holds no F: the
    search finds none in it, and _f_windows does not yield it."""
    dvals = (2, 3, 3, 5)
    w = aci._FWindow([5, 5, 6], 3, 4, 9, [3, 3], (3, 3, 4))  # m = 2
    assert aci._admissible_f_tuples(dvals, w) != []
    assert aci._admissible_f_tuples(dvals, w._replace(caps=(1, 3, 4))) == []
    above = 0
    for dvals in aci._sorted_d_tuples(12):
        searched = list(aci._f_windows(dvals, 12, 5))
        for w, _ in _reference_windows(dvals, 12, 5):
            if not _searched(w):
                assert w not in searched and aci._admissible_f_tuples(dvals, w) == [], (dvals, w)
                above += 1
    assert above > 100


def test_enumerate_contains_worked_example():
    # degrees of the admissible worked case all sit within (14, 7); the
    # stream is ordered by norm(D), so stop once past its block
    target = betti(CASE_ADMISSIBLE)
    seen = False
    for b in enumerate_admissible(14, 7):
        if b == target:
            seen = True
            break
        if b.d.norm() > target.d.norm():
            break
    assert seen
