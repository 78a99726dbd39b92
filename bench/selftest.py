"""Tests of the benchmark's references and generators against closed forms.

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import tempfile
import unittest
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import numpy as np

import checks
import refs
import spans
import workloads


def _random_int(rng, n, lo=-5, hi=5):
    return rng.integers(lo, hi + 1, size=(n, n)).tolist()


def _permanent_by_rows(m):
    n = len(m)
    return sum(prod(m[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def _leibniz(m):
    n = len(m)
    total = 0
    for p in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][p[i]]
        total += term
    return total


class PermanentTest(unittest.TestCase):
    def test_ryser_matches_expansion(self):
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            m = _random_int(rng, n)
            self.assertEqual(refs.ryser(m)[0], _permanent_by_rows(m))

    def test_closed_forms(self):
        for n in range(1, 9):
            ones = [[1] * n for _ in range(n)]
            self.assertEqual(refs.ryser(ones)[0], factorial(n))
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            self.assertEqual(refs.ryser(eye)[0], 1)
        # per of the 3x3 circulant with halves is 1/4
        half = Fraction(1, 2)
        circ = [[half, half, 0], [0, half, half], [half, 0, half]]
        self.assertEqual(refs.ryser(circ)[0], Fraction(1, 4))

    def test_abs_sum_bounds_the_permanent(self):
        rng = np.random.default_rng(1)
        m = _random_int(rng, 6, 1, 9)
        per, abs_sum = refs.ryser(m)
        self.assertGreaterEqual(abs_sum, per)


class DeterminantTest(unittest.TestCase):
    def test_det_matches_leibniz(self):
        rng = np.random.default_rng(2)
        for n in range(1, 6):
            for _ in range(5):
                m = _random_int(rng, n, -2, 2)
                self.assertEqual(refs.det_int(m), _leibniz(m))

    def test_triangular(self):
        m = [[2, 7, 1], [0, 3, 5], [0, 0, -4]]
        self.assertEqual(refs.det_int(m), -24)


class MixedDiscriminantTest(unittest.TestCase):
    def test_identity_tuple(self):
        # det(sum x_i I) = (sum x_i)^n, whose mixed partial is n!
        for n in range(1, 6):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            self.assertEqual(refs.mixed_disc_by_columns([eye] * n), factorial(n))

    def test_diagonal_tuple_is_permanent(self):
        rng = np.random.default_rng(3)
        m = _random_int(rng, 5, 0, 6)
        mats = workloads._diagonal_tuple(m)
        self.assertEqual(refs.mixed_disc_by_columns(mats), refs.ryser(m)[0])

    def test_rank_one_tuple_is_det_squared(self):
        rng = np.random.default_rng(4)
        v = np.array(_random_int(rng, 5, -3, 3))
        mats = [np.outer(v[:, i], v[:, i]).tolist() for i in range(5)]
        self.assertEqual(refs.mixed_disc_by_columns(mats),
                         refs.det_int(v.tolist()) ** 2)

    def test_polarization_scale(self):
        n = 4
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        abs_sum, log_spread = refs.diagonal_polarization_scale(eye, 1)
        self.assertEqual(abs_sum, 2 ** n)
        self.assertEqual(log_spread, 0.0)
        rng = np.random.default_rng(5)
        m = _random_int(rng, 5, 1, 9)
        abs_sum, _ = refs.diagonal_polarization_scale(m, 1)
        self.assertGreaterEqual(abs_sum, 2 ** 5 * refs.ryser(m)[0])


class CapacityTest(unittest.TestCase):
    def test_doubly_stochastic_has_capacity_one(self):
        n = 5
        B = np.full((n, n), 1.0 / n)
        self.assertAlmostEqual(refs.sinkhorn_capacity(B), 0.0, places=12)

    def test_diagonal_scaling(self):
        rng = np.random.default_rng(6)
        n = 6
        B = np.full((n, n), 1.0 / n)
        d1 = rng.uniform(0.5, 2, n)
        d2 = rng.uniform(0.5, 2, n)
        A = d1[:, None] * B * d2[None, :]
        self.assertAlmostEqual(refs.sinkhorn_capacity(A),
                               float(np.log(d1).sum() + np.log(d2).sum()),
                               places=10)

    def test_doubly_stochastic_pencil(self):
        rng = np.random.default_rng(7)
        ranks = [2, 3, 2, 4, 3, 2]
        mats = workloads._doubly_stochastic_pencil(rng, 6, ranks)
        self.assertLess(np.abs(mats.sum(axis=0) - np.eye(6)).max(), 1e-12)
        self.assertLess(np.abs(np.trace(mats, axis1=1, axis2=2) - 1).max(), 1e-12)
        self.assertEqual([int(np.linalg.matrix_rank(m)) for m in mats], ranks)


class FactorTest(unittest.TestCase):
    def test_factors(self):
        self.assertEqual(refs.vdw_factor(3), Fraction(2, 9))
        for n in range(1, 8):
            self.assertEqual(refs.uniform_rank_factor(n, n), refs.vdw_factor(n))
            self.assertEqual(refs.approx_guarantee(n, n - 1), 1)
        self.assertEqual(refs.uniform_rank_factor(4, 2), Fraction(1, 8))
        self.assertEqual(refs.approx_guarantee(3, 0), Fraction(9, 2))

    def test_gamma(self):
        self.assertEqual(refs.gamma(0), 0.0)
        self.assertGreater(refs.gamma(2), 2 * refs.UNIT_ROUNDOFF)


class WorkloadTest(unittest.TestCase):
    def _build(self, name, seed):
        with tempfile.TemporaryDirectory() as tmp:
            jobs = workloads.build(name, seed, Path(tmp))
            docs = sorted(p.read_text() for p in Path(tmp).iterdir())
        return [job.argv[0] for job in jobs], docs

    def test_seed_decides_inputs(self):
        for name in workloads.WORKLOADS:
            cmds, docs = self._build(name, 3)
            self.assertEqual(self._build(name, 3), (cmds, docs))
            other_cmds, other_docs = self._build(name, 4)
            self.assertEqual(other_cmds, cmds)
            self.assertNotEqual(other_docs, docs)

    def test_scalars_are_quoted(self):
        def leaves(x):
            return [v for item in x for v in leaves(item)] if isinstance(x, list) else [x]

        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                workloads.build(name, 0, Path(tmp))
                for path in Path(tmp).iterdir():
                    doc = json.loads(path.read_text())
                    values = leaves(doc.get("matrix", doc.get("matrices")))
                    self.assertTrue(all(isinstance(v, str) for v in values))

    def test_latin_support(self):
        rng = np.random.default_rng(8)
        s = workloads._latin_support(rng, 12, 4)
        self.assertTrue((s.sum(axis=0) == 4).all() and (s.sum(axis=1) == 4).all())


class CheckTest(unittest.TestCase):
    def test_exact_check_rejects_a_wrong_value(self):
        job = workloads.Job(["permanent", "p.json"], "exact",
                            {"value": Fraction(1, 4)})
        ok = {"command": "permanent", "result": {"permanent": "1/4"}}
        bad = {"command": "permanent", "result": {"permanent": "1/5"}}
        self.assertEqual(checks.check(job, ok), [])
        self.assertNotEqual(checks.check(job, bad), [])

    def test_approx_check_enforces_the_guarantee(self):
        job = workloads.Job(["approx"], "approx",
                            {"n": 3, "k": 0, "value": Fraction(1)})
        result = {"guarantee_factor": 4.5, "estimate": 4.6, "k_used": 0}
        self.assertNotEqual(checks.check(job, {"command": "approx",
                                               "result": result}), [])
        result["estimate"] = 2.0
        self.assertEqual(checks.check(job, {"command": "approx",
                                            "result": result}), [])


class BenchmarkFileTest(unittest.TestCase):
    def test_layer_metrics_match(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        self.assertEqual(listed, [m[:3] for m in spans.LAYER_METRICS])


if __name__ == "__main__":
    unittest.main()
