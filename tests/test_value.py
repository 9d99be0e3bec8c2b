"""The value records and the argument binding of ``value.py``.

Every record keeps what its frozen dataclass gave: the ``Name(f=...)``
repr (golden digests read reprs), ``==`` only within one class, the hash
of the field tuple (set and dict orders follow it), keyword construction
with defaults, and no assignment.  ``core.memo`` binds its arguments the
same way, so one call spelt three ways shares one memo entry.
"""

import inspect

import pytest

from leibnizalg import aalgebra
from leibnizalg.aalgebra import AVerdict, ClauseResult
from leibnizalg.core import Violation
from leibnizalg.corpus import fixture
from leibnizalg.enumeration import DEFAULT_BUDGET, frattini_ideal
from leibnizalg.errors import BadSpec
from leibnizalg.fields import QQ, ExtensionField, PrimeField, gf
from leibnizalg.linalg import Subspace
from leibnizalg.poly import Poly


def test_reprs_keep_the_dataclass_form():
    S = Subspace.span(gf(3), 3, [(0, 1, 2), (2, 0, 0)])
    assert repr(PrimeField(3)) == "PrimeField(p=3)"
    assert repr(QQ) == "Rationals()"
    assert repr(gf(4)) == "ExtensionField(p=2, k=2, modulus=(1, 1, 1))"
    assert repr(S) == ("Subspace(field=PrimeField(p=3), ambient=3, "
                       "basis=((1, 0, 0), (0, 1, 2)), pivots=(0, 1))")
    assert repr(AVerdict(True, "abelian")) == (
        "AVerdict(value=True, certificate='abelian', witness=None, reasons=())")
    assert repr(AVerdict(False, witness=S.intersect(S))) == (
        f"AVerdict(value=False, certificate=None, witness={S!r}, reasons=())")
    assert repr(Poly(gf(2), (1, 1))) == "Poly(field=PrimeField(p=2), coeffs=(1, 1))"
    assert repr(Violation((0, 1, 2), (1,), (0,))) == (
        "Violation(triple=(0, 1, 2), lhs=(1,), rhs=(0,))")


def test_equal_values_hash_equally_and_as_their_field_tuples():
    F = gf(3)
    S = Subspace.span(F, 2, [(2, 1)])
    T = Subspace(PrimeField(3), 2, ((1, 2),), (0,))
    assert S == T and S is not T and hash(S) == hash(T)
    assert hash(S) == hash((S.field, S.ambient, S.basis, S.pivots))
    E = ExtensionField(2, 2, [1, 1, 1])
    assert E == gf(4) and E is not gf(4) and hash(E) == hash(gf(4))
    assert hash(E) == hash((2, 2, (1, 1, 1)))
    assert PrimeField(3) == F and hash(F) == hash((3,))
    assert hash(QQ) == hash(()) and QQ == type(QQ)()
    assert hash(ClauseResult("c", True, True)) == hash(("c", True, True, ""))
    assert AVerdict(True, "abelian") == AVerdict(True, "abelian", None, ())
    assert {S: 1}[T] == 1


def test_values_of_different_classes_are_never_equal():
    assert PrimeField(2) != ExtensionField(2, 1, (1, 1))
    assert ExtensionField(2, 1, (1, 1)) != PrimeField(2)
    assert PrimeField(2).__eq__(gf(4)) is NotImplemented
    assert gf(3) != QQ and QQ != gf(3)
    assert Poly(gf(2), ()) != Subspace.zero_space(gf(2), 0)
    assert AVerdict(True) != (True, None, None, ())


@pytest.mark.parametrize("target,name", [
    (lambda: gf(3), "p"),
    (lambda: gf(4), "modulus"),
    (lambda: Subspace.zero_space(QQ, 2), "basis"),
    (lambda: AVerdict(None), "reasons"),
    (lambda: QQ, "zero"),
])
def test_assignment_and_deletion_raise(target, name):
    value = target()
    with pytest.raises(AttributeError):
        setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.new_attribute = 1


def test_keyword_construction_and_defaults():
    row = aalgebra._Row("clause", aalgebra._check_quotient_closure, probe=True)
    assert (row.gates, row.needs, row.each, row.probe) == ((), (), None, True)
    assert row.reads == ("L", "ideals", "budget", "seed")
    assert row == aalgebra._Row(check=aalgebra._check_quotient_closure, clause="clause",
                                probe=True)
    assert AVerdict(False, reasons=("r",)).reasons == ("r",)
    assert ClauseResult("c", False, None).detail == ""
    assert PrimeField(p=5) == gf(5)


def test_rows_read_the_parameters_of_their_checks():
    for row in aalgebra._BATTERY + aalgebra._STRUCTURE:
        params = tuple(inspect.signature(row.check).parameters)
        assert row.reads == (params[:-1] if row.each else params), row.clause


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),
    ((True, None, None, (), 1), {}),
    ((True,), {"value": False}),
    ((True,), {"verdict": "true"}),
])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        AVerdict(*args, **kwargs)


def test_post_init_runs_after_keyword_construction():
    with pytest.raises(BadSpec, match="not prime"):
        PrimeField(p=4)


def test_memo_binds_positions_keywords_and_defaults_to_one_entry():
    L = fixture("H3", gf(2))
    phi = frattini_ideal(L)
    assert frattini_ideal(L, DEFAULT_BUDGET) is phi
    assert frattini_ideal(L, budget=DEFAULT_BUDGET) is phi
    assert len([k for k in L._cache if k[0] == "frattini_ideal"]) == 1
    with pytest.raises(TypeError):
        frattini_ideal(L, 10, budget=10)
    with pytest.raises(TypeError):
        frattini_ideal(L, cap=10)
    with pytest.raises(TypeError):
        frattini_ideal(L, 10, 20)
