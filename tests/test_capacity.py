"""Capacity minimization and Sinkhorn scaling."""
import json
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import capacity, fixtures
from polycap.capacity import log_objective
from polycap.cli import main
from polycap.polynomials import _OracleObjective


class TestKnownValues:
    def test_uniform_product_is_one(self):
        for n in (2, 3, 5, 8):
            r = pc.capacity_minimize(fixtures.uniform_product_polynomial(n))
            assert r.value == pytest.approx(1.0, abs=1e-10)
            assert r.status == "converged"

    def test_diagonal_product(self):
        p = pc.ProductFormPolynomial([[2.0, 0.0], [0.0, 3.0]], mode="float")
        assert pc.capacity_minimize(p).value == pytest.approx(6.0, rel=1e-10)

    def test_all_ones_matrix(self):
        p = pc.ProductFormPolynomial([[1.0, 1.0], [1.0, 1.0]], mode="float")
        assert pc.capacity_minimize(p).value == pytest.approx(4.0, rel=1e-10)

    def test_equality_family_value_is_product_of_scalers(self):
        # p(x) = (<a, x>/3)^3 attains the n!/n^n bound; Cap(p) = prod(a_i)
        a = (Fraction(1, 2), Fraction(1, 3), Fraction(5))
        p = pc.ProductFormPolynomial([[v / 3 for v in a]] * 3)
        r = pc.capacity_minimize(p)
        assert r.value == pytest.approx(float(Fraction(1, 2) * Fraction(1, 3) * 5),
                                        rel=1e-9)

    def test_single_variable(self):
        p = pc.SparsePolynomial(1, {(3,): 2}, mode="exact")
        r = pc.capacity_minimize(p)
        assert r.value == 2.0 and r.status == "converged" and r.iterations == 0

    def test_minimizer_is_feasible(self):
        rng = np.random.default_rng(1)
        p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                     mode="float")
        r = pc.capacity_minimize(p)
        x = np.array(r.minimizer)
        assert np.all(x > 0)
        assert np.prod(x) == pytest.approx(1.0, rel=1e-12)
        assert p.evaluate(tuple(x)) == pytest.approx(r.value, rel=1e-12)


def _objective_case(kind, rng):
    """(poly, same): a seeded polynomial of the kind, and the same polynomial
    as a structured representation (poly itself unless it is a plain oracle)."""
    if kind == "sparse":
        poly = pc.ProductFormPolynomial(
            fixtures.random_positive_matrix(3, rng), mode="float").expand()
    elif kind == "product":
        poly = pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                        mode="float")
    elif kind == "determinantal":
        poly = pc.DeterminantalPolynomial(
            fixtures.doubly_stochastic_psd_tuple(4, rng), mode="float")
    elif kind == "function":
        same = pc.ProductFormPolynomial(
            fixtures.random_positive_matrix(3, rng), mode="float")
        return pc.FunctionOracle(3, 3, same.evaluate), same
    elif kind == "derivative-slice":
        # A sparse base keeps the finite-difference objective.
        same = pc.ProductFormPolynomial(
            fixtures.random_positive_matrix(4, rng), mode="float").expand()
        return pc.DerivativeSliceOracle(same, 1), pc.derivative_reduce(same)
    else:
        # A pencil base gives the slice its jets. A diagonal pencil is the
        # product form of the transposed matrix.
        m = fixtures.random_positive_matrix(4, rng)
        base = pc.DeterminantalPolynomial(fixtures.diagonal_psd_tuple(m))
        same = pc.ProductFormPolynomial(np.array(m).T, mode="float").expand()
        return pc.DerivativeSliceOracle(base, 1), pc.derivative_reduce(same)
    return poly, poly


# Kinds whose objective is in closed form, and kinds that take finite
# differences.
_CLOSED = ["sparse", "product", "determinantal", "pencil-slice"]
_PLAIN = ["function", "derivative-slice"]


class TestObjectiveDerivatives:
    @pytest.mark.parametrize("kind", _CLOSED + _PLAIN)
    def test_gradient_and_hessian_match_finite_differences(self, kind):
        rng = np.random.default_rng(42)
        poly, same = _objective_case(kind, rng)
        # A plain oracle gets the finite-difference objective; it and a slice
        # are checked against the closed form of the same polynomial as a
        # structured representation.
        obj = log_objective(poly)
        ref = log_objective(same)
        assert isinstance(obj, _OracleObjective) == (kind in _PLAIN)
        y = rng.normal(0, 0.3, poly.n_vars)
        h = 1e-6
        eye = np.eye(poly.n_vars)
        fd_g = np.array([(ref.value(y + h * e) - ref.value(y - h * e)) / (2 * h)
                         for e in eye])
        fd_h = np.array([(ref.gradient(y + h * e) - ref.gradient(y - h * e)) / (2 * h)
                         for e in eye])
        assert obj.value(y) == pytest.approx(ref.value(y), rel=1e-12)
        assert np.abs(obj.gradient(y) - fd_g).max() < 1e-6
        assert np.abs(obj.hessian(y) - fd_h).max() < 1e-5

    @pytest.mark.parametrize("kind", _CLOSED)
    def test_closed_forms_obey_eulers_identity(self, kind):
        # Homogeneity of degree d: f(y + c1) = f(y) + d c, so g.1 = d and
        # H 1 = 0, which the capacity solver's Newton step relies on.
        rng = np.random.default_rng(44)
        poly, _ = _objective_case(kind, rng)
        obj = log_objective(poly)
        for _ in range(5):
            y = rng.normal(0, 0.5, poly.n_vars)
            assert obj.gradient(y).sum() == pytest.approx(poly.degree, rel=1e-12)
            H = obj.hessian(y)
            assert np.abs(H.sum(axis=1)).max() <= 1e-10 * np.abs(H).max()

    @pytest.mark.parametrize("kind", _CLOSED)
    def test_closed_forms_keep_only_their_last_point(self, kind):
        # What an objective keeps from its last y never answers for another
        # y, nor for that y changed in place.
        rng = np.random.default_rng(46)
        poly, _ = _objective_case(kind, rng)
        obj = log_objective(poly)
        y = rng.normal(0, 0.3, poly.n_vars)
        for z in (y, y[::-1].copy(), y, y + 0.0):
            fresh = log_objective(poly)
            for method in ("value", "gradient", "hessian"):
                np.testing.assert_array_equal(getattr(obj, method)(z),
                                              getattr(fresh, method)(z))
        y += 0.1
        np.testing.assert_array_equal(obj.hessian(y),
                                      log_objective(poly).hessian(y))

    def test_pencil_factors_once_per_point(self, monkeypatch):
        rng = np.random.default_rng(47)
        poly, _ = _objective_case("determinantal", rng)
        obj = log_objective(poly)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda m: calls.append(1) or cholesky(m))
        for y in (np.zeros(poly.n_vars), rng.normal(0, 0.3, poly.n_vars)):
            obj.value(y), obj.gradient(y), obj.hessian(y)
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", _PLAIN)
    def test_finite_difference_hessian_takes_its_diagonal_from_the_rows(self, kind):
        rng = np.random.default_rng(45)
        poly, _ = _objective_case(kind, rng)
        n = poly.n_vars
        obj = log_objective(poly)
        y = rng.normal(0, 0.3, n)
        before = poly.calls
        H = obj.hessian(y)
        # Four stencil points per off-diagonal pair, none for the diagonal.
        assert poly.calls - before == 2 * n * (n - 1)
        assert np.abs(H.sum(axis=1)).max() <= 1e-12 * np.abs(H).max()

    def test_objective_is_convex_along_segments(self):
        rng = np.random.default_rng(43)
        poly = pc.ProductFormPolynomial(fixtures.random_positive_matrix(5, rng),
                                        mode="float")
        obj = log_objective(poly)
        for _ in range(50):
            y1 = rng.normal(0, 1.0, 5)
            y2 = rng.normal(0, 1.0, 5)
            mid = obj.value((y1 + y2) / 2)
            assert mid <= (obj.value(y1) + obj.value(y2)) / 2 + 1e-9

    def test_oracle_objective_finite_differences(self):
        fn = pc.FunctionOracle(3, 3, lambda x: ((x[0] + x[1] + x[2]) / 3) ** 3,
                               mode="float")
        r = pc.capacity_minimize(fn, tol=1e-8)
        assert r.value == pytest.approx(1.0, rel=1e-7)


class TestInvariances:
    def test_scalar_homogeneity(self):
        rng = np.random.default_rng(2)
        m = fixtures.random_positive_matrix(3, rng)
        c1 = pc.capacity_minimize(pc.ProductFormPolynomial(m, mode="float")).value
        scaled = [[7.0 * v for v in row] for row in [m[0]]] + [list(m[1]), list(m[2])]
        c2 = pc.capacity_minimize(pc.ProductFormPolynomial(scaled, mode="float")).value
        assert c2 == pytest.approx(7.0 * c1, rel=1e-9)

    def test_diagonal_substitution_multiplies_by_det(self):
        # Cap(p(Dx)) = prod(d) * Cap(p) for degree-n forms in n variables
        rng = np.random.default_rng(3)
        m = np.array(fixtures.random_positive_matrix(3, rng))
        d = np.array([2.0, 0.5, 3.0])
        c1 = pc.capacity_minimize(pc.ProductFormPolynomial(m, mode="float")).value
        c2 = pc.capacity_minimize(pc.ProductFormPolynomial(m * d[None, :],
                                                           mode="float")).value
        assert c2 == pytest.approx(d.prod() * c1, rel=1e-9)

    def test_representation_independence(self):
        rng = np.random.default_rng(4)
        m = fixtures.random_positive_matrix(4, rng)
        p = pc.ProductFormPolynomial(m, mode="float")
        c_prod = pc.capacity_minimize(p).value
        c_sparse = pc.capacity_minimize(p.expand()).value
        mats = fixtures.diagonal_psd_tuple(m)
        # det(sum x_i diag(row_i)) multiplies columns, i.e. the transpose form
        c_det = pc.capacity_minimize(
            pc.DeterminantalPolynomial(mats, mode="float")).value
        c_trans = pc.capacity_minimize(
            pc.ProductFormPolynomial(np.array(m, dtype=float).T, mode="float")).value
        assert c_sparse == pytest.approx(c_prod, rel=1e-8)
        assert c_det == pytest.approx(c_trans, rel=1e-8)

    @pytest.mark.parametrize("kind", ["product", "determinantal", "sparse"])
    def test_permuting_the_variables(self, kind):
        # q(x) = p(Px): variable j of q is variable perm[j] of p, so Cap(q) =
        # Cap(p) and the ranks come back permuted the same way.
        rng = np.random.default_rng(5)
        n = 5
        perm = rng.permutation(n)
        if kind == "determinantal":
            # Scalable, so the minimum is attained (a random Gram tuple with a
            # rank-1 slot has its minimizer at infinity and stops at the cap).
            d = rng.uniform(0.5, 2.0, n)
            mats = _doubly_stochastic_pencil(rng, n, (2, 3, 4, 5, 2))
            mats = mats * d[:, None, None]
            p = pc.DeterminantalPolynomial(mats, mode="float")
            q = pc.DeterminantalPolynomial(mats[perm], mode="float")
        else:
            m = rng.uniform(0.1, 1.0, (n, n))
            for j in range(n - 1):
                m[rng.permutation(n)[: n - 1 - j], j] = 0.0  # rank j + 1
            p = pc.ProductFormPolynomial(m, mode="float")
            q = pc.ProductFormPolynomial(m[:, perm], mode="float")
            if kind == "sparse":
                p = p.expand()
                q = pc.SparsePolynomial(n, {tuple(np.array(e)[perm].tolist()): c
                                            for e, c in p.terms.items()})
        rep_p = pc.rank_ladder_bound(p)
        rep_q = pc.rank_ladder_bound(q)
        assert rep_p.capacity_status == rep_q.capacity_status == "converged"
        assert rep_q.capacity == pytest.approx(rep_p.capacity, rel=1e-9)
        assert rep_q.ranks == tuple(rep_p.ranks[i] for i in perm)
        assert len(set(rep_p.ranks)) > 2


def _doubly_stochastic_pencil(rng, n, ranks):
    """PSD matrices of the given ranks with sum I and unit traces, by
    alternately normalizing the sum and the traces (operator scaling)."""
    mats = np.array([w @ w.T for w in (rng.standard_normal((n, r)) for r in ranks)])
    for _ in range(2000):
        vals, vecs = np.linalg.eigh(mats.sum(axis=0))
        half = vecs @ np.diag(vals ** -0.5) @ vecs.T
        mats = half @ mats @ half
        traces = np.trace(mats, axis1=1, axis2=2)
        mats /= traces[:, None, None]
        if np.abs(traces - 1.0).max() < 1e-13:
            return mats
    raise RuntimeError("operator scaling did not converge")


class TestStatusesAndValidation:
    def test_degenerate_zero_sparse(self):
        p = pc.SparsePolynomial(2, {(2, 0): 1.0}, mode="float")
        r = pc.capacity_minimize(p)
        assert r.value == 0.0 and r.status == "degenerate-zero"
        assert r.stop_reason == "degenerate" and r.log_value is None

    def test_degenerate_zero_product(self):
        p = pc.ProductFormPolynomial([[0.0, 1.0], [0.0, 1.0]], mode="float")
        r = pc.capacity_minimize(p)
        assert r.value == 0.0 and r.status == "degenerate-zero"
        assert r.stop_reason == "degenerate" and r.log_value is None

    def test_iteration_cap_status(self):
        p = pc.ProductFormPolynomial([[5.0, 0.1], [0.1, 3.0]], mode="float")
        r = pc.capacity_minimize(p, max_iter=1)
        assert r.status == "iteration-cap" and r.iterations == 1
        assert r.stop_reason == "iteration-budget"
        assert r.log_value == pytest.approx(np.log(r.value), rel=1e-14)

    def test_gradient_stop(self):
        r = pc.capacity_minimize(fixtures.uniform_product_polynomial(4))
        assert r.stop_reason == "gradient" and r.status == "converged"
        assert r.iterations == 0 and r.log_value == pytest.approx(0.0, abs=1e-15)

    def test_stalled_line_search_is_told_apart(self, monkeypatch):
        # An objective that is finite only at the start: no step can pass
        # the Armijo test, and the run says so instead of using its budget.
        real = capacity.log_objective

        class Wall:
            def __init__(self, poly):
                self.obj = real(poly)
                self.gradient = self.obj.gradient
                self.hessian = self.obj.hessian

            def value(self, y):
                return self.obj.value(y) if not y.any() else np.inf

        monkeypatch.setattr(capacity, "log_objective", Wall)
        p = pc.ProductFormPolynomial([[5.0, 0.1], [0.1, 3.0]], mode="float")
        r = pc.capacity_minimize(p)
        assert r.stop_reason == "line-search" and r.status == "iteration-cap"
        assert r.iterations == 0 and r.minimizer == (1.0, 1.0)
        assert r.value == pytest.approx(5.1 * 3.1)

    def test_pencil_converges_within_budget(self):
        # A 24 x 24 doubly stochastic pencil whose gradient norm stalls just
        # above tol 1e-10; Cap(p(Dx)) = det(D) Cap(p) = det(D).
        n = 24
        rng = np.random.default_rng(35)
        ranks = rng.integers(2, n // 2 + 1, size=n)
        d = rng.uniform(0.5, 2.0, size=n)
        mats = d[:, None, None] * _doubly_stochastic_pencil(rng, n, ranks)
        mats = (mats + mats.transpose(0, 2, 1)) / 2
        r = pc.capacity_minimize(pc.DeterminantalPolynomial(mats, mode="float"),
                                 tol=1e-10, max_iter=200)
        assert r.stop_reason in ("gradient", "decrement")
        assert r.status == "converged" and r.iterations < 200
        assert r.log_value == pytest.approx(np.log(d).sum(), abs=1e-12)

    def test_overflowing_value_is_null_in_the_report(self, tmp_path, capsys):
        # p(minimizer) overflows float64 at n = 400; f = log p does not.
        m = np.random.default_rng(0).uniform(0.1, 1, (400, 400))
        path = tmp_path / "p400.json"
        path.write_text(json.dumps({"kind": "product", "matrix": m.tolist()}))
        assert main(["capacity", str(path)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        result = json.loads(capsys.readouterr().out,
                            parse_constant=refuse)["result"]
        assert result["value"] is None and result["status"] == "converged"
        with np.errstate(over="ignore"):  # its product of scalers overflows
            s = pc.sinkhorn_scale(m, tol=1e-12)
        log_cap = np.log(s.row_scalers).sum() + np.log(s.col_scalers).sum()
        assert result["log_value"] == pytest.approx(log_cap, abs=1e-9)

    def test_identically_zero_pencil_rejected(self):
        mats = [[[1.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]
        p = pc.DeterminantalPolynomial(mats, mode="float")
        with pytest.raises(pc.InputError, match="positive"):
            pc.capacity_minimize(p)

    def test_bad_tol(self):
        p = fixtures.uniform_product_polynomial(2)
        for tol in (0.0, float("nan")):
            with pytest.raises(pc.InputError):
                pc.capacity_minimize(p, tol=tol)
            with pytest.raises(pc.InputError):
                pc.sinkhorn_scale([[1.0, 2.0], [3.0, 4.0]], tol=tol)


class TestSinkhorn:
    def test_doubly_stochastic_fixed_point(self):
        m = [[0.5, 0.5], [0.5, 0.5]]
        r = pc.sinkhorn_scale(m)
        assert r.status == "converged"
        assert r.capacity == pytest.approx(1.0, rel=1e-12)
        assert r.max_deviation <= 1e-10

    def test_all_ones_capacity_four(self):
        r = pc.sinkhorn_scale([[1.0, 1.0], [1.0, 1.0]])
        assert r.capacity == pytest.approx(4.0, rel=1e-12)

    def test_agrees_with_newton(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = fixtures.random_positive_matrix(4, rng)
            cap_s = pc.sinkhorn_scale(m, tol=1e-12).capacity
            cap_n = pc.capacity_minimize(
                pc.ProductFormPolynomial(m, mode="float"), tol=1e-12).value
            assert cap_s == pytest.approx(cap_n, rel=1e-8)

    def test_scaled_matrix_is_doubly_stochastic(self):
        rng = np.random.default_rng(8)
        r = pc.sinkhorn_scale(fixtures.random_positive_matrix(5, rng))
        s = np.array(r.scaled_matrix)
        assert np.abs(s.sum(axis=0) - 1).max() < 1e-9
        assert np.abs(s.sum(axis=1) - 1).max() < 1e-9
        # scalers factor the input as A = D1 B D2 with B the balanced matrix
        m = np.array(fixtures.random_positive_matrix(5, np.random.default_rng(8)))
        rebuilt = np.diag(r.row_scalers) @ s @ np.diag(r.col_scalers)
        assert np.abs(rebuilt - m).max() < 1e-10

    def test_zero_row_rejected(self):
        with pytest.raises(pc.InputError):
            pc.sinkhorn_scale([[0.0, 0.0], [1.0, 1.0]])

    def test_zero_column_rejected(self):
        with pytest.raises(pc.InputError):
            pc.sinkhorn_scale([[0.0, 1.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(pc.InputError):
            pc.sinkhorn_scale([[1.0, 1.0]])

    def test_iteration_cap(self):
        rng = np.random.default_rng(9)
        r = pc.sinkhorn_scale(fixtures.random_positive_matrix(3, rng),
                              tol=1e-12, max_iter=10)
        assert r.status in ("converged", "iteration-cap")
        if r.status == "iteration-cap":
            assert r.iterations == 10


def sinkhorn_reference(matrix, tol=1e-10, max_iter=10000):
    """The Sinkhorn loop as it was before it kept its row sums: each sweep
    sums the rows, divides into a new matrix twice, and measures the
    deviation with capacity._stochastic_deviation. (scaled matrix, row
    scalers, column scalers, iterations, deviation, status)."""
    B = np.array(matrix, dtype=float)
    n = B.shape[0]
    d1 = np.ones(n)
    d2 = np.ones(n)
    status = "iteration-cap"
    iterations = max_iter
    dev = np.inf
    for it in range(1, max_iter + 1):
        r = B.sum(axis=1)
        B = B / r[:, None]
        d1 *= r
        c = B.sum(axis=0)
        B = B / c[None, :]
        d2 *= c
        dev = capacity._stochastic_deviation(B)
        if dev <= tol:
            status = "converged"
            iterations = it
            break
    return B, d1, d2, iterations, dev, status


def _k_regular(n, k, rng):
    """Entries in [0.1, 1] on the union of k random permutation supports."""
    support = np.zeros((n, n))
    for _ in range(k):
        support[np.arange(n), rng.permutation(n)] = 1
    return support * rng.uniform(0.1, 1.0, (n, n))


class TestSinkhornAgainstReference:
    """sinkhorn_scale keeps every bit of the loop it replaced."""

    @staticmethod
    def _same(matrix, **kwargs):
        B, d1, d2, iterations, dev, status = sinkhorn_reference(matrix, **kwargs)
        r = pc.sinkhorn_scale(matrix, **kwargs)
        assert np.array_equal(np.array(r.scaled_matrix), B)
        assert r.row_scalers == tuple(d1.tolist())
        assert r.col_scalers == tuple(d2.tolist())
        assert (r.iterations, r.max_deviation, r.status) == \
            (iterations, dev, status)
        assert type(r.max_deviation) is float
        assert all(type(v) is float for v in r.scaled_matrix[0] + r.row_scalers)
        return r

    @pytest.mark.parametrize("n", [2, 5, 17, 60])
    def test_dense(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert self._same(rng.uniform(0.1, 1.0, (n, n))).status == \
                "converged"

    @pytest.mark.parametrize("n, k", [(10, 2), (40, 3), (80, 4), (120, 5)])
    def test_k_regular_support(self, n, k):
        self._same(_k_regular(n, k, np.random.default_rng(n + k)))

    def test_stopped_by_max_iter(self):
        # A support with a row that meets no diagonal converges slowly.
        m = np.triu(np.random.default_rng(3).uniform(0.1, 1.0, (6, 6)))
        m[-1, 0] = 1e-3
        r = self._same(m, tol=1e-14, max_iter=25)
        assert (r.status, r.iterations) == ("iteration-cap", 25)


    @pytest.mark.parametrize("n, tol, max_iter", [
        (17, 1e-10, 0), (17, 1e-10, 1), (17, 1e-10, 3),
        # Past convergence: the last sweep's rows are off by one ulp and its
        # columns by two.
        (40, 1e-300, 100)])
    def test_capped_runs_measure_their_last_sweep(self, n, tol, max_iter):
        # The column sums are measured only on a sweep whose rows are within
        # tol, and after the last sweep of a capped run.
        r = self._same(np.random.default_rng(1).uniform(0.1, 1.0, (n, n)),
                       tol=tol, max_iter=max_iter)
        assert (r.status, r.iterations) == ("iteration-cap", max_iter)
