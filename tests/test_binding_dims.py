"""A binding whose object names agree with its declared type but whose
objects differ reports the dims: the names alone would read as equal."""
import pytest

from weakhopf.cleft import ComoduleAlgebra
from weakhopf.fields import QQ
from weakhopf.groupoid import groupoid_algebra, pair_groupoid
from weakhopf.ir import WordTypeError
from weakhopf.linalg import identity, tensor_product


def test_same_named_carriers_show_their_dims():
    H = groupoid_algebra(pair_groupoid(2), QQ)
    B = groupoid_algebra(pair_groupoid(4), QQ)  # its carrier is also named H
    d = tensor_product(identity(QQ, (B.obj,)), H.eta)  # b -> b (x) 1, a map B -> B,H
    C = ComoduleAlgebra(B.algebra, d, H)
    with pytest.raises(WordTypeError) as exc:
        C.context
    assert str(exc.value) == (
        "type mismatch at muB: expected H[4],H[4],->,H[4], found H[16],H[16],->,H[16]"
    )
