"""H is one structure: a weak bialgebra whose antipode is optional.  H with
an antipode is a weak Hopf algebra, and ``WeakHopfAlgebra`` names the same
class.  Its contexts and projections are built once and kept."""
import pytest

from weakhopf.bialgebra import InvalidStructure, WeakBialgebra, WeakHopfAlgebra
from weakhopf.algebra import StructureError
from weakhopf.fields import QQ
from weakhopf.groupoid import cyclic, group_groupoid, groupoid_algebra, pair_groupoid
from weakhopf.linalg import LinMap


def _parts(H):
    return H.field, H.obj, H.mu, H.eta, H.delta, H.eps


def test_weak_hopf_algebra_is_the_bialgebra_class():
    assert WeakHopfAlgebra is WeakBialgebra
    H = groupoid_algebra(pair_groupoid(2), QQ)
    assert type(H) is WeakBialgebra
    assert H.antipode is not None
    assert WeakBialgebra.checked(*_parts(H)).antipode is None


def test_checked_adds_the_antipode_axioms_when_an_antipode_is_given():
    H = groupoid_algebra(group_groupoid(cyclic(3)), QQ)
    wrong = LinMap.from_int_columns(QQ, (H.obj,), (H.obj,), [{j: 1} for j in range(H.dim)], 1)
    WeakBialgebra.checked(*_parts(H))  # the identity is no antipode, but none is asked for
    with pytest.raises(InvalidStructure) as exc:
        WeakBialgebra.checked(*_parts(H), wrong)
    assert exc.value.report.title == "antipode axioms"


def test_antipode_must_be_an_endomorphism_of_the_carrier():
    H = groupoid_algebra(pair_groupoid(2), QQ)
    with pytest.raises(StructureError):
        WeakBialgebra.unchecked(*_parts(H), H.eps)


def test_contexts_and_projections_are_kept():
    H = groupoid_algebra(pair_groupoid(2), QQ)
    assert H.core_env() is H.core_env()
    assert H.base_env() is H.base_env()
    assert H.projection("L") is H.projection("L")
    assert H.base_env().bindings["piR"] is H.projection("R")
    assert H == H and H != WeakBialgebra.unchecked(*_parts(H), H.antipode)
    with pytest.raises(AttributeError):
        H.mu = H.mu  # the kept contexts are read off the fields

