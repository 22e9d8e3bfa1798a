import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonekit import EmpiricalLaw, mixture_pmf, pmf_l1


def law(support, mass):
    return EmpiricalLaw(np.array(support), np.array(mass))


class TestPmfL1:
    def test_identical(self):
        p = law([0, 1], [0.5, 0.5])
        assert pmf_l1(p, p) == 0.0

    def test_disjoint_deltas(self):
        assert pmf_l1(law([0], [1.0]), law([1], [1.0])) == 2.0

    def test_arithmetic(self):
        p = law([0, 1], [0.5, 0.5])
        q = law([0, 1], [0.75, 0.25])
        assert pmf_l1(p, q) == pytest.approx(0.5)

    def test_symmetry_exact(self):
        p = law([0, 2, 5], [0.2, 0.3, 0.5])
        q = law([1, 2], [0.9, 0.1])
        assert pmf_l1(p, q) == pmf_l1(q, p)


class TestValidation:
    def test_non_finite_mass_rejected(self):
        # NaN passes both the sign and the sum comparison
        with pytest.raises(ValueError, match="non-finite"):
            law([0, 1], [np.nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            law([0, 1], [np.inf, 1.0])


@st.composite
def lattice_laws(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    support = draw(
        st.lists(st.integers(-20, 20), min_size=size, max_size=size, unique=True)
    )
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)
    )
    mass = np.array(raw) / sum(raw)
    return EmpiricalLaw(np.sort(np.array(support)), mass)


@given(p=lattice_laws(), q=lattice_laws(), r=lattice_laws())
@settings(max_examples=150, deadline=None)
def test_metric_properties(p, q, r):
    assert pmf_l1(p, q) == pmf_l1(q, p)
    assert 0.0 <= pmf_l1(p, q) <= 2.0 + 1e-12
    assert pmf_l1(p, r) <= pmf_l1(p, q) + pmf_l1(q, r) + 1e-12


class TestEmpiricalPmf:
    def test_sampling_error_scale(self):
        from clonekit import Bernoulli, stream

        exact = Bernoulli().stat_pmf(0.5, 10)
        rng = stream(4, "bin-draws")
        draws = rng.binomial(10, 0.5, size=100_000)
        empirical = np.bincount(draws, minlength=11) / draws.size
        assert np.abs(empirical - exact.mass).sum() < 0.02


class TestMixture:
    def test_single_atom_identity(self):
        p = law([2, 3], [0.25, 0.75])
        assert pmf_l1(mixture_pmf([(p, 1.0)]), p) < 1e-15

    def test_two_deltas(self):
        mix = mixture_pmf([(law([0], [1.0]), 0.5), (law([4], [1.0]), 0.5)])
        assert list(mix.support) == [0, 4]
        assert mix.mass == pytest.approx([0.5, 0.5])

    def test_weight_violation(self):
        p = law([0], [1.0])
        with pytest.raises(ValueError):
            mixture_pmf([(p, 0.4), (p, 0.4)])


class TestValidationAndIo:
    def test_validation(self):
        with pytest.raises(ValueError):
            law([1, 0], [0.5, 0.5])  # unsorted
        with pytest.raises(ValueError):
            law([0, 1], [0.7, 0.7])  # sum != 1
        with pytest.raises(ValueError):
            law([0, 1], [1.5, -0.5])  # negative
