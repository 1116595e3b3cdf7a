"""Every refusal of the package is a KronspinError (ContractError for a bad
value), so a caller catching the taxonomy's base catches it; each such error
is also a ValueError, as these refusals were before."""

import re

import numpy as np
import pytest

from kronspin.errors import ContractError, KronspinError
from kronspin.hamiltonian_builder import CouplingEdge, HamiltonianSpec, WeightTriple
from kronspin.kron_core import kron
from kronspin.matfree_engine import ExchangeSum, KronTerm, lanczos_extremal, spec_to_kronsum
from kronspin.spin_algebra import pauli


def chain3():
    return spec_to_kronsum(HamiltonianSpec(3, 1.0, (CouplingEdge(1, 2, 1.0), CouplingEdge(2, 3, 1.0))))


REFUSALS = {
    "kron-inf-entry": lambda: kron([[np.inf]], [[1]]),
    "pauli-axis": lambda: pauli("w"),
    "lanczos-which": lambda: lanczos_extremal(chain3(), which="middle"),
    "spec-mu_b0-string": lambda: HamiltonianSpec(2, "a"),
    "edge-strength-none": lambda: CouplingEdge(1, 2, None),
    "weight-string": lambda: WeightTriple("a", 1, 1),
    "term-coefficient-string": lambda: KronTerm("a", (None,)),
    "term-coefficient-huge-int": lambda: KronTerm(10 ** 400, (None,)),
    "exchange-field-string": lambda: ExchangeSum(2, "a", ()),
    "exchange-coupling-huge-int": lambda: ExchangeSum(2, None, ((1, 2, 10 ** 400, 1.0),)),
    "lanczos-tol-string": lambda: lanczos_extremal(chain3(), tol="x"),
    "lanczos-tol-huge-int": lambda: lanczos_extremal(chain3(), tol=10 ** 400),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_a_kronspin_error(call):
    with pytest.raises(KronspinError) as err:
        call()
    assert isinstance(err.value, ContractError)
    assert isinstance(err.value, ValueError)


NUMERIC_TEXT = {
    "spec-mu_b0": lambda v: HamiltonianSpec(2, v),
    "edge-strength": lambda v: CouplingEdge(1, 2, v),
    "weight": lambda v: WeightTriple(v, 1, 1),
    "term-coefficient": lambda v: KronTerm(v, (None,)),
}


@pytest.mark.parametrize("value", ["1.5", " 2 ", "1+2j", b"1.5"])
@pytest.mark.parametrize("build", NUMERIC_TEXT.values(), ids=NUMERIC_TEXT.keys())
def test_numeric_text_is_no_number(build, value):
    # float() and complex() parse such text; ExchangeSum already refused it
    with pytest.raises(ContractError, match=re.escape(f"must be a number, got {value!r}")):
        build(value)
    with pytest.raises(ContractError, match="must be finite"):
        ExchangeSum(2, value, ())
