"""LP deficiency oracle: kernels, discretization, monotone convergence.

The uninformative-experiment value of 1.0 was derived by hand before the
build: for target rows (delta_0, delta_1) and identical source rows, every
kernel sends both parameters to one output pmf mu, and
min over mu of max_i ||mu - delta_i||_1 is attained at the midpoint with
value 1.
"""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from clonekit import (
    ConfigurationError,
    DeficiencyResult,
    FiniteExperiment,
    NumericalError,
    GridSpec,
    discretize_gaussian_pair,
    gaussian_cell_masses,
    identity_objective,
    kernel_objective,
    lp_deficiency,
    tv_isotropic,
)
from clonekit.deficiency import _mirrored, _priced_solve, _starting_band, symmetric_shifts

TV_2_1 = 0.3321281500


def experiment(rows):
    rows = np.asarray(rows, dtype=float)
    return FiniteExperiment(params=tuple(range(rows.shape[0])), probs=rows)


def unreduced_value(source, target):
    """Optimum of the deficiency LP over every kernel entry, by HiGHS simplex.

    The formulation `lp_deficiency` used before it solved on a band: kernel
    entries in column-major blocks per input, absolute-deviation slacks,
    and the objective variable last.
    """
    p = len(source.params)
    k_in = source.n_outcomes
    k_out = target.n_outcomes
    n_l = k_in * k_out
    n_e = p * k_out
    n_var = n_l + n_e + 1
    a_eq = sparse.csr_matrix(
        (np.ones(n_l), (np.repeat(np.arange(k_in), k_out), np.arange(n_l))),
        shape=(k_in, n_var),
    )
    blocks = []
    rhs = []
    eye_out = sparse.eye(k_out, format="csr")
    for t in range(p):
        m_t = sparse.kron(sparse.csr_matrix(source.probs[t][None, :]), eye_out)
        e_t = sparse.hstack([
            sparse.csr_matrix((k_out, t * k_out)),
            -eye_out,
            sparse.csr_matrix((k_out, n_e - (t + 1) * k_out)),
        ])
        zero_t = sparse.csr_matrix((k_out, 1))
        blocks.append(sparse.hstack([m_t, e_t, zero_t]))
        rhs.append(target.probs[t])
        blocks.append(sparse.hstack([-m_t, e_t, zero_t]))
        rhs.append(-target.probs[t])
    blocks.append(sparse.hstack([
        sparse.csr_matrix((p, n_l)),
        sparse.kron(sparse.eye(p, format="csr"), np.ones((1, k_out))),
        sparse.csr_matrix(-np.ones((p, 1))),
    ]))
    rhs.append(np.zeros(p))
    cost = np.zeros(n_var)
    cost[-1] = 1.0
    res = linprog(
        cost, A_ub=sparse.vstack(blocks, format="csr"), b_ub=np.concatenate(rhs),
        A_eq=a_eq, b_eq=np.ones(k_in), bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9},
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestDataTypes:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            experiment([[0.5, 0.6]])
        with pytest.raises(ValueError):
            experiment([[1.2, -0.2]])

    def test_non_finite_mass_rejected(self):
        # a NaN row passes both the sign and the row-sum comparison
        with pytest.raises(ValueError, match="non-finite"):
            FiniteExperiment((0,), [[math.nan, 0.5]])
        with pytest.raises(ValueError, match="non-finite"):
            FiniteExperiment((0,), [[math.inf, 0.5]])

    def test_kernel_validation(self):
        # the LP returns its kernel as a plain column-stochastic array
        small = (experiment([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]),
                 experiment([[0.5, 0.5], [0.25, 0.75]]))
        banded = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0,
                                          GridSpec(-10, 10, 81))
        for src, tgt in (small, banded):
            kernel = lp_deficiency(src, tgt).kernel
            assert isinstance(kernel, np.ndarray)
            assert kernel.shape == (tgt.n_outcomes, src.n_outcomes)
            assert np.all(kernel >= 0.0)
            assert np.abs(kernel.sum(axis=0) - 1.0).max() <= 1e-12


class TestCellMasses:
    def test_sum_and_cdf_difference(self):
        edges = np.linspace(-9, 9, 101)
        masses = gaussian_cell_masses(0.5, 1.2, edges)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        # interior cell equals the erf difference
        i = 50
        phi = lambda x: 0.5 * (1 + math.erf((x - 0.5) / (1.2 * math.sqrt(2))))
        assert masses[i] == pytest.approx(phi(edges[i + 1]) - phi(edges[i]), rel=1e-10)

    def test_narrow_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            gaussian_cell_masses(0.0, 1.0, np.linspace(-2, 2, 10))


class TestDiscretize:
    def test_zero_shift_rows_identical(self):
        grid = GridSpec(-8, 8, 81)
        src, tgt = discretize_gaussian_pair([0.0], 1.0, 2.0, grid)
        assert np.abs(src.probs - tgt.probs).max() < 1e-15

    def test_row_sums(self):
        grid = GridSpec(-8, 8, 161)
        src, tgt = discretize_gaussian_pair([-1.0, 0.0, 1.0], 1.0, 2.0, grid)
        assert np.abs(src.probs.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(tgt.probs.sum(axis=1) - 1).max() < 1e-12
        assert len(src.params) == 3

    def test_modes(self):
        grid = GridSpec(-16, 16, 161)
        s1, t1 = discretize_gaussian_pair([0.5], 1.0, 4.0, grid, "mean-shift")
        s2, t2 = discretize_gaussian_pair([0.5], 1.0, 4.0, grid, "variance-excess")
        # mean-shift: target mean moved to 2 * 0.5
        assert t1.probs[0].argmax() > s1.probs[0].argmax()
        # variance-excess: source is the wider one, same mean
        assert s2.probs[0].max() < t2.probs[0].max()
        for bogus in ("bogus", "cov-root"):
            with pytest.raises(ConfigurationError):
                discretize_gaussian_pair([0.0], 1.0, 2.0, grid, bogus)

    def test_symmetric_shifts_mirror_the_pair(self):
        # a = 2 is not a multiple of 0.3: the list stops at 1.8 on both sides
        hs = symmetric_shifts(2.0, 0.3)
        assert len(hs) == 13 and hs == [-h for h in reversed(hs)]
        src, tgt = discretize_gaussian_pair(hs, 1.0, 2.0, GridSpec(-10, 10, 81))
        assert _mirrored(src.probs) and _mirrored(tgt.probs)


class TestLpDeficiency:
    def test_source_equals_target(self):
        exp = experiment([[0.2, 0.8], [0.6, 0.4]])
        res = lp_deficiency(exp, exp)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.lp_status == "optimal"

    def test_single_parameter_always_zero(self):
        src = experiment([[0.3, 0.7]])
        tgt = experiment([[0.9, 0.1]])
        res = lp_deficiency(src, tgt)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_uninformative_source(self):
        src = experiment([[0.5, 0.5], [0.5, 0.5]])
        tgt = experiment([[1.0, 0.0], [0.0, 1.0]])
        res = lp_deficiency(src, tgt)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_kernel_is_feasible_and_consistent(self):
        src = experiment([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        tgt = experiment([[0.5, 0.5], [0.25, 0.75]])
        res = lp_deficiency(src, tgt)
        # reported optimum equals the objective of the returned kernel
        assert kernel_objective(res.kernel, src, tgt) == pytest.approx(
            res.value, abs=1e-12
        )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(5), size=3)
        src = experiment(probs)
        tgt = experiment(rng.dirichlet(np.ones(4), size=3))
        perm_in = rng.permutation(5)
        perm_out = rng.permutation(4)
        src_p = experiment(probs[:, perm_in])
        tgt_p = experiment(tgt.probs[:, perm_out])
        assert lp_deficiency(src, tgt).value == pytest.approx(
            lp_deficiency(src_p, tgt_p).value, abs=1e-9
        )

    def test_parameter_mismatch(self):
        src = FiniteExperiment(params=("a",), probs=[[1.0]])
        tgt = FiniteExperiment(params=("b",), probs=[[1.0]])
        with pytest.raises(ValueError):
            lp_deficiency(src, tgt)

    def test_size_cap(self):
        big = experiment(np.full((1, 250), 1 / 250))
        with pytest.raises(ConfigurationError):
            lp_deficiency(big, big)

    def test_row_cap_raises_before_any_solve(self, monkeypatch):
        # 201 shifts x 200 cells: 40 200 deviation rows, while the kernel's
        # 200 x 200 = 40 000 variables are within their cap
        import clonekit.deficiency as deficiency_module

        def no_solve(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(deficiency_module, "linprog", no_solve)
        wide = experiment(np.full((201, 200), 1 / 200))
        with pytest.raises(ConfigurationError, match="201 shifts .* cap is 40000"):
            lp_deficiency(wide, wide)
        under = experiment(np.full((200, 200), 1 / 200))  # 40 000 rows: allowed
        moved = np.full((200, 200), 1 / 200)  # not identical, so the LP is solved
        moved[:, 0] += 1 / 400
        moved[:, 1] -= 1 / 400
        with pytest.raises(AssertionError, match="linprog called"):
            lp_deficiency(under, experiment(moved))

    @pytest.mark.parametrize("r", [1.0, 1.0000000000000002])
    def test_identical_pair_needs_no_solve(self, monkeypatch, r):
        # at r = 1 (or an r whose square root rounds to 1) source and target
        # are the same experiment; HiGHS's simplex clean-up can cycle on it
        import clonekit.deficiency as deficiency_module

        def no_solve(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(deficiency_module, "linprog", no_solve)
        src, tgt = discretize_gaussian_pair(symmetric_shifts(2.0, 0.5), 1.0, r,
                                            GridSpec(-10, 10, 201))
        assert np.array_equal(src.probs, tgt.probs)
        res = lp_deficiency(src, tgt)
        assert res.value == 0.0 and res.lp_status == "optimal"
        assert np.array_equal(res.kernel, np.eye(200))
        assert (res.kernel_vars, res.pricing_rounds, res.simplex_or_ipm_iters,
                res.crossover_iters) == (0, 0, 0, 0)
        assert kernel_objective(res.kernel, src, tgt) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    def test_near_identical_pair_takes_the_identity(self, monkeypatch, a):
        # at r = 1 + 1e-12 the identity kernel scores 2e-13 to 1.6e-12, and
        # HiGHS ends such a solve with an unknown status
        import clonekit.deficiency as deficiency_module

        def no_solve(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(deficiency_module, "linprog", no_solve)
        src, tgt = discretize_gaussian_pair(symmetric_shifts(a, 0.5), 1.0,
                                            1.000000000001, GridSpec(-10, 10, 201))
        assert not np.array_equal(src.probs, tgt.probs)
        res = lp_deficiency(src, tgt)
        assert res.value == identity_objective(src, tgt) <= 1e-9
        assert res.value > 0.0 and res.lp_status == "optimal"
        assert np.array_equal(res.kernel, np.eye(200))
        assert kernel_objective(res.kernel, src, tgt) == res.value
        assert (res.kernel_vars, res.pricing_rounds, res.simplex_or_ipm_iters,
                res.crossover_iters) == (0, 0, 0, 0)

    def test_iteration_limit_is_a_numerical_error(self, monkeypatch):
        # HiGHS's status 1 is the iteration limit: the optimum is uncertified
        import clonekit.deficiency as deficiency_module

        def stopped(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.status, res.message = 1, "Iteration limit reached."
            return res

        monkeypatch.setattr(deficiency_module, "linprog", stopped)
        src = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        tgt = np.array([[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(NumericalError, match="Iteration limit"):
            _priced_solve(src, tgt, np.ones((3, 2), dtype=bool))

    @pytest.mark.parametrize("value", [-1e-6, math.nan])
    def test_negative_value_is_a_numerical_error(self, value):
        # a post-condition on the solver's result, not the caller's mistake
        with pytest.raises(NumericalError, match="nonnegative"):
            DeficiencyResult(value, np.eye(2), "optimal", 4, 1, 1, 0)

    def test_solver_statistics(self):
        src = experiment([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        tgt = experiment([[0.5, 0.5], [0.25, 0.75]])
        res = lp_deficiency(src, tgt)
        assert 1 <= res.kernel_vars <= 6
        assert res.pricing_rounds >= 1
        assert res.simplex_or_ipm_iters >= 1
        assert res.crossover_iters >= 0


class TestExactBandedLp:
    """The banded, priced LP reaches the optimum of the unreduced LP."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unreduced_on_dirichlet(self, seed):
        rng = np.random.default_rng(seed)
        p, k_in, k_out = 2 + seed % 3, 6 + seed, 5 + 2 * seed
        src = experiment(rng.dirichlet(np.ones(k_in), size=p))
        tgt = experiment(rng.dirichlet(np.ones(k_out), size=p))
        res = lp_deficiency(src, tgt)
        assert res.lp_status == "optimal"
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)

    def test_matches_unreduced_on_gaussian_pair(self):
        grid = GridSpec(-10, 10, 121)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0, grid)
        res = lp_deficiency(src, tgt)
        assert res.lp_status == "optimal"
        assert res.kernel_vars < src.n_outcomes * tgt.n_outcomes
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0, "witness"])
    def test_starting_band_certifies_in_one_round(self, a):
        # the lp-oracle benchmark's four LPs (the three mean-shift ones and
        # criterion 1's witness) and criterion 3's a = 4 LP; a 4.5-sd band
        # gave 6 998 kernel variables (6 634 for the witness), all in one round
        if a == "witness":
            span = 6 * math.sqrt(2.0) + 2 * math.sqrt(2.0) * math.sqrt(2.0)
            src, tgt = discretize_gaussian_pair(
                [-2.0, -1.0, 0.0, 1.0, 2.0], 1.0, 2.0, GridSpec(-span, span, 201),
                "variance-excess",
            )
            wide_band_vars = 6634
        else:
            hs = np.arange(-a, a + 1e-9, 0.5)
            src, tgt = discretize_gaussian_pair(hs, 1.0, 2.0, GridSpec(-10, 10, 201))
            wide_band_vars = 6998
        res = lp_deficiency(src, tgt)
        assert res.pricing_rounds == 1
        assert res.lp_status == "optimal"
        assert res.kernel_vars < wide_band_vars

    def test_pricing_grows_a_narrow_mask_to_the_optimum(self):
        grid = GridSpec(-10, 10, 121)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0, grid)
        k_in, k_out = src.n_outcomes, tgt.n_outcomes
        start = np.eye(k_in, k_out, dtype=bool)
        res, mask = _priced_solve(src.probs, tgt.probs, start)
        assert res.pricing_rounds > 1
        assert res.lp_status == "optimal"
        assert np.all(mask[start]) and mask.sum() > start.sum()
        assert res.kernel_vars == mask.sum()
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)
        # the kernel lives on the final mask and attains the reported value,
        # up to the tail cells below HiGHS's 1e-9 coefficient cut-off, which
        # the solver sees as empty (about 2e-9 here)
        assert np.all(res.kernel.T[~mask] == 0.0)
        assert kernel_objective(res.kernel, src, tgt) == pytest.approx(
            res.value, abs=1e-8
        )


class TestGaussianDeficiency:
    def test_shift_bound_monotone_and_capped(self):
        grid = GridSpec(-10, 10, 121)
        values = []
        for a in (0.5, 1.0, 2.0):
            hs = np.arange(-a, a + 1e-9, 0.5)
            src, tgt = discretize_gaussian_pair(hs, 1.0, 2.0, grid)
            values.append(lp_deficiency(src, tgt).value)
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9
        assert values[-1] <= TV_2_1 + 0.02

    def test_frozen_value_at_a2(self):
        # oracle run before the build: a = 2, step 0.5, 200 cells -> 0.2417
        grid = GridSpec(-10, 10, 201)
        hs = np.arange(-2, 2 + 1e-9, 0.5)
        src, tgt = discretize_gaussian_pair(hs, 1.0, 2.0, grid)
        assert lp_deficiency(src, tgt).value == pytest.approx(0.2417, abs=0.004)

    def test_variance_excess_identity_witness(self):
        # in the scaled form the identity kernel reproduces the closed-form
        # constant up to discretization, and the LP can only do better
        grid = GridSpec(-12, 12, 201)
        hs = [-1.0, 0.0, 1.0]
        src, tgt = discretize_gaussian_pair(hs, 1.0, 2.0, grid, "variance-excess")
        witness = identity_objective(src, tgt)
        assert witness == pytest.approx(tv_isotropic(2, 1), abs=2e-3)
        res = lp_deficiency(src, tgt)
        assert res.value <= witness + 1e-9


def mirrored_experiment(rng, p, k):
    """Random pmf rows with row ``p-1-t`` equal to row ``t`` reversed."""
    rows = rng.dirichlet(np.ones(k), size=p)
    rows = rows + rows[::-1, ::-1]
    return experiment(rows / rows.sum(axis=1, keepdims=True))


@pytest.fixture
def eq_rows(monkeypatch):
    """Kernel columns of every LP that `lp_deficiency` solves.

    Counts the column-sum rows: the equality rows with no entry in a column
    that the inequality rows use (the slacks and the objective).  The
    deviation rows each hold a slack.
    """
    from clonekit import deficiency

    seen = []

    def spy(*args, **kwargs):
        a_eq = sparse.csc_matrix(kwargs["A_eq"])
        slack = sparse.csc_matrix(kwargs["A_ub"]).getnnz(axis=0) > 0
        seen.append(int((a_eq[:, slack].getnnz(axis=1) == 0).sum()))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(deficiency, "linprog", spy)
    return seen


class TestMirrorReduction:
    """Reflection-symmetric inputs solve the LP over mirrored kernels only."""

    @pytest.mark.parametrize("mode", ["mean-shift", "variance-excess"])
    @pytest.mark.parametrize("hs", [[-0.5, 0.0, 0.5], [-0.75, -0.25, 0.25, 0.75]])
    def test_matches_unreduced_on_gaussian_pairs(self, eq_rows, mode, hs):
        grid = GridSpec(-10, 10, 81)
        src, tgt = discretize_gaussian_pair(hs, 1.0, 2.0, grid, mode)
        res = lp_deficiency(src, tgt)
        assert set(eq_rows) == {src.n_outcomes // 2}
        assert res.lp_status == "optimal"
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)
        kernel = res.kernel
        assert kernel.shape == (tgt.n_outcomes, src.n_outcomes)
        assert np.all(kernel >= 0.0)
        assert np.abs(kernel.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(kernel - kernel[::-1, ::-1]).max() <= 1e-12
        assert kernel_objective(kernel, src, tgt) == pytest.approx(
            res.value, abs=1e-8
        )

    @pytest.mark.parametrize("p, k_in, k_out", [
        (1, 4, 3), (2, 6, 5), (3, 4, 7), (3, 8, 6), (4, 6, 9), (5, 10, 8),
    ])
    def test_matches_unreduced_on_mirrored_dirichlet(self, eq_rows, p, k_in, k_out):
        # odd k_out puts a self-mirrored row in the middle of the output
        rng = np.random.default_rng(100 * p + k_in + k_out)
        src = mirrored_experiment(rng, p, k_in)
        tgt = mirrored_experiment(rng, p, k_out)
        res = lp_deficiency(src, tgt)
        assert set(eq_rows) == {k_in // 2}
        assert res.lp_status == "optimal"
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)
        assert kernel_objective(res.kernel, src, tgt) == pytest.approx(
            res.value, abs=1e-8
        )

    def test_pricing_grows_a_narrow_mirrored_mask(self):
        grid = GridSpec(-10, 10, 81)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0, grid)
        half = src.n_outcomes // 2
        start = np.eye(src.n_outcomes, tgt.n_outcomes, dtype=bool)[:half]
        res, mask = _priced_solve(src.probs, tgt.probs, start, mirror=True)
        assert res.pricing_rounds > 1
        assert res.lp_status == "optimal"
        assert mask.shape == start.shape and np.all(mask[start])
        assert res.kernel_vars == mask.sum()
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)
        assert np.all(res.kernel.T[:half][~mask] == 0.0)
        assert kernel_objective(res.kernel, src, tgt) == pytest.approx(
            res.value, abs=1e-8
        )

    def test_pricing_grows_narrow_mirrored_dirichlet_masks(self):
        # pricing that leaves out the mirror image's deviation rows stops
        # early, above the optimum, on several of these instances
        p, k_in, k_out = 4, 6, 5
        start = np.eye(k_in, k_out, dtype=bool)[: k_in // 2]
        for seed in range(30):
            rng = np.random.default_rng(seed)
            src = mirrored_experiment(rng, p, k_in)
            tgt = mirrored_experiment(rng, p, k_out)
            res = _priced_solve(src.probs, tgt.probs, start, mirror=True)[0]
            assert res.lp_status == "optimal"
            assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)

    def test_halves_the_kernel_variables(self):
        grid = GridSpec(-10, 10, 81)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0, grid)
        band = _starting_band(src.probs, tgt.probs)
        res = lp_deficiency(src, tgt)
        assert res.pricing_rounds == 1
        assert res.kernel_vars == band.sum() // 2

    def test_asymmetric_shift_list_falls_back(self, eq_rows):
        grid = GridSpec(-10, 10, 81)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 1.0], 1.0, 2.0, grid)
        res = lp_deficiency(src, tgt)
        assert set(eq_rows) == {src.n_outcomes}
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)

    def test_perturbed_cell_falls_back(self, eq_rows):
        grid = GridSpec(-10, 10, 81)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0, grid)
        probs = src.probs.copy()
        probs[0, 30] += 1e-10
        probs[0, 31] -= 1e-10
        src = FiniteExperiment(src.params, probs)
        res = lp_deficiency(src, tgt)
        assert set(eq_rows) == {src.n_outcomes}
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)

    def test_odd_cell_count_falls_back(self, eq_rows):
        grid = GridSpec(-10, 10, 82)
        src, tgt = discretize_gaussian_pair([-0.5, 0.0, 0.5], 1.0, 2.0, grid)
        assert src.n_outcomes % 2 == 1
        res = lp_deficiency(src, tgt)
        assert set(eq_rows) == {src.n_outcomes}
        assert res.value == pytest.approx(unreduced_value(src, tgt), abs=1e-9)
