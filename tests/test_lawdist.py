"""Lattice laws, and the count-law stages of the cloner's loss on them.

`mixture_pmf` and `pmf_l1` are the array forms in `clonekit.cloner`: pmfs
are vectors over one common run of lattice cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonekit import EmpiricalLaw
from clonekit.cloner import mixture_pmf, pmf_l1


def law(support, mass):
    return EmpiricalLaw(np.array(support), np.array(mass))


class TestPmfL1:
    def test_identical(self):
        p = np.array([0.5, 0.5])
        assert pmf_l1(p, p) == 0.0

    def test_disjoint_deltas(self):
        assert pmf_l1(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_arithmetic(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.75, 0.25])
        assert pmf_l1(p, q) == pytest.approx(0.5)

    def test_symmetry_exact(self):
        p = np.array([0.2, 0.0, 0.3, 0.0, 0.0, 0.5])
        q = np.array([0.0, 0.9, 0.1, 0.0, 0.0, 0.0])
        assert pmf_l1(p, q) == pmf_l1(q, p)


class TestValidation:
    def test_non_finite_mass_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            law([0, 1], [np.nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            law([0, 1], [np.inf, 1.0])


@st.composite
def lattice_pmfs(draw, cells=8):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells))
    raw[draw(st.integers(0, cells - 1))] += 0.01
    return np.array(raw) / sum(raw)


@given(p=lattice_pmfs(), q=lattice_pmfs(), r=lattice_pmfs())
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
        # one replicate whose two atoms carry the whole law
        p = np.array([0.0, 0.0, 0.25, 0.75])
        mix = mixture_pmf(np.array([2, 3]), np.array([0.25, 0.75]), p.size, 1)
        assert pmf_l1(mix, p) < 1e-15

    def test_two_deltas(self):
        # two replicates of total weight 1 each, at cells 0 and 4
        mix = mixture_pmf(np.array([0, 4]), np.array([1.0, 1.0]), 5, 2)
        assert mix == pytest.approx([0.5, 0.0, 0.0, 0.0, 0.5])
