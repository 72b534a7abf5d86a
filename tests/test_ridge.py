import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent import futures
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from recipe_nutrients import cli, ridge
from recipe_nutrients.dataset import NutrientVector
from recipe_nutrients.kernels import CsrMatrix, from_dense
from recipe_nutrients.ridge import (
    NutrientPrediction,
    RidgeConfig,
    RidgeModel,
    SolverStats,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
    train_path,
)

ALL = ("energy", "fat", "protein", "salt", "saturates", "sugars")


def labels_for(values, target="fat"):
    rows = []
    for value in values:
        fields = dict.fromkeys(ALL, 0.0)
        fields[target] = float(value)
        rows.append(NutrientVector(**fields))
    return rows


def closed_form(X, y, alpha):
    d = X.shape[1]
    return np.linalg.solve(X.T @ X + alpha * np.eye(d), X.T @ y)


def closed_form_with_intercept(X, y, alpha):
    n, d = X.shape
    ones = np.ones((n, 1))
    A = np.hstack([X, ones])
    penalty = np.diag(np.append(np.ones(d), 0.0))
    z = np.linalg.solve(A.T @ A + alpha * penalty, A.T @ y)
    return z[:d], z[d]


def sparse_unit(j, dim, value=1.0):
    row = np.zeros((1, dim))
    row[0, j] = value
    return from_dense(row)


class TestTrain:
    def test_identity_system(self):
        model = train(from_dense(np.eye(3)), labels_for([1, 2, 3]), ["fat"],
                      RidgeConfig(alpha=1e-12, fit_intercept=False, solver_tol=1e-14))
        assert np.allclose(model.weights[0], [1, 2, 3], atol=1e-6)

    def test_huge_alpha_predicts_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.random(30) * 10
        model = train(from_dense(X), labels_for(y), ["fat"],
                      RidgeConfig(alpha=1e12, fit_intercept=True, solver_tol=1e-12))
        for i in range(5):
            raw = model.weights @ X[i] + model.intercepts
            assert raw[0] == pytest.approx(y.mean(), abs=1e-3)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 5))
        y = rng.random(20) * 5
        model = train(from_dense(X), labels_for(y), ["fat"],
                      RidgeConfig(alpha=1.0, fit_intercept=False, solver_tol=1e-12))
        assert np.allclose(model.weights[0], closed_form(X, y, 1.0), atol=1e-6)

    def test_intercept_matches_augmented_closed_form(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 6))
        y = rng.random(25) * 8 + 3
        model = train(from_dense(X), labels_for(y), ["fat"],
                      RidgeConfig(alpha=2.5, fit_intercept=True, solver_tol=1e-12))
        w, b = closed_form_with_intercept(X, y, 2.5)
        assert np.allclose(model.weights[0], w, atol=1e-6)
        assert model.intercepts[0] == pytest.approx(b, abs=1e-6)

    def test_multi_target(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 4))
        fat = rng.random(15)
        sugars = rng.random(15)
        rows = [NutrientVector(energy=0, fat=f, protein=0, salt=0, saturates=0, sugars=s)
                for f, s in zip(fat, sugars)]
        model = train(from_dense(X), rows, ["fat", "sugars"],
                      RidgeConfig(alpha=1.0, fit_intercept=False, solver_tol=1e-12))
        assert np.allclose(model.weights[0], closed_form(X, fat, 1.0), atol=1e-6)
        assert np.allclose(model.weights[1], closed_form(X, sugars, 1.0), atol=1e-6)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            train(from_dense(np.eye(3)), labels_for([1, 2]), ["fat"])

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 8))
        y = rng.random(40) * 4
        norms = []
        for alpha in (0.1, 1.0, 10.0, 100.0):
            model = train(from_dense(X), labels_for(y), ["fat"],
                          RidgeConfig(alpha=alpha, fit_intercept=False, solver_tol=1e-12))
            norms.append(np.linalg.norm(model.weights[0]))
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_local_optimality_of_objective(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        y = rng.random(12) * 3
        alpha = 1.5
        model = train(from_dense(X), labels_for(y), ["fat"],
                      RidgeConfig(alpha=alpha, fit_intercept=False, solver_tol=1e-14))
        w = model.weights[0]

        def objective(weights):
            residual = X @ weights - y
            return residual @ residual + alpha * weights @ weights

        base = objective(w)
        for j in range(4):
            for delta in (1e-3, -1e-3):
                bumped = w.copy()
                bumped[j] += delta
                assert objective(bumped) >= base - 1e-12

    def test_nonconvergence_recorded_as_warning(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 10))
        y = rng.random(30)
        model = train(from_dense(X), labels_for(y), ["fat"],
                      RidgeConfig(alpha=0.01, solver_tol=1e-14, max_iterations=2))
        assert model.warnings and "cg stopped" in model.warnings[0]


    def test_constant_labels_give_zero_weights_and_mean_intercept(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 5))
        model = train(from_dense(X), labels_for([3.7] * 20), ["fat"], RidgeConfig(alpha=0.1))
        assert np.allclose(model.weights[0], 0.0, atol=1e-12)
        assert model.intercepts[0] == pytest.approx(3.7, abs=1e-12)
        assert not model.warnings

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_one_row(self, fit_intercept):
        x = np.array([[0.0, 2.0, 1.0]])
        model = train(from_dense(x), labels_for([5.0]), ["fat"],
                      RidgeConfig(alpha=0.5, fit_intercept=fit_intercept, solver_tol=1e-12))
        if fit_intercept:
            w, b = closed_form_with_intercept(x, np.array([5.0]), 0.5)
        else:
            w, b = closed_form(x, np.array([5.0]), 0.5), 0.0
        assert np.allclose(model.weights[0], w, atol=1e-9)
        assert model.intercepts[0] == pytest.approx(b, abs=1e-9)

    def test_solver_stats_per_target(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 10))
        model = train(from_dense(X), labels_for(rng.random(30)), ["fat", "sugars"],
                      RidgeConfig(alpha=1.0))
        assert set(model.solver_stats) == {"fat", "sugars"}
        fat = model.solver_stats["fat"]
        assert 1 <= fat.iterations <= 11
        assert fat.relative_residual <= 1e-8
        # all-zero labels: nothing to solve
        assert model.solver_stats["sugars"] == SolverStats(iterations=0, relative_residual=0.0)

    def test_unconverged_stats_match_warning(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 10))
        models = train_path(from_dense(X), labels_for(rng.random(30)), ["fat"], [0.01, 100.0],
                            RidgeConfig(solver_tol=1e-14, max_iterations=2))
        for model in models:
            stats = model.solver_stats["fat"]
            assert stats.iterations == 2 and stats.relative_residual > 1e-14
            assert model.warnings == [f"target 'fat': cg stopped after 2 iterations "
                                      f"with relative residual {stats.relative_residual:.3e}"]

    @pytest.mark.parametrize("field, value", [("alpha", math.nan), ("alpha", math.inf),
                                              ("alpha", 0.0), ("solver_tol", math.nan),
                                              ("solver_tol", math.inf), ("solver_tol", -1.0)])
    def test_config_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            RidgeConfig(**{field: value})


@st.composite
def ridge_paths(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3, 3)))
    X[~draw(hnp.arrays(np.bool_, (n, d)))] = 0.0
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(0, 10)))
    alphas = draw(st.lists(st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]),
                           min_size=1, max_size=5, unique=True))
    return X, y, alphas, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(ridge_paths())
def test_path_matches_closed_form_per_alpha(problem):
    X, y, alphas, fit_intercept = problem
    models = train_path(from_dense(X), labels_for(y), ["fat"], alphas,
                        RidgeConfig(fit_intercept=fit_intercept, solver_tol=1e-12,
                                    max_iterations=10_000))
    assert [m.config.alpha for m in models] == alphas
    for alpha, model in zip(alphas, models):
        if fit_intercept:
            w, b = closed_form_with_intercept(X, y, alpha)
        else:
            w, b = closed_form(X, y, alpha), 0.0
        np.testing.assert_allclose(model.weights[0], w, rtol=0, atol=1e-6)
        assert model.intercepts[0] == pytest.approx(b, abs=1e-6)
        assert not model.warnings


@st.composite
def copied_columns(draw):
    """A design whose columns repeat 1-4 times, each beside a near-copy: one
    value one ulp off, the same values in other rows, or the column doubled."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 5))
    base = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-3, 3)))
    base[~draw(hnp.arrays(np.bool_, (n, k)))] = 0.0
    base[base == 0.0] = 0.0  # no -0.0, which the sparse matrix does not store
    columns = []
    for column in base.T:
        columns += [column] * draw(st.integers(1, 4))
        near = draw(st.sampled_from(["ulp", "rows", "double"]))
        nonzero = np.flatnonzero(column)
        if near == "ulp" and len(nonzero):
            column = column.copy()
            i = draw(st.sampled_from(nonzero.tolist()))
            column[i] = np.nextafter(column[i], np.inf)
        elif near == "rows":
            column = np.roll(column, draw(st.integers(1, n)))
        else:
            column = 2 * column
        columns.append(column)
    order = draw(st.permutations(range(len(columns))))
    X = np.stack([columns[i] for i in order], axis=1)
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(0, 10)))
    alphas = draw(st.lists(st.sampled_from([0.1, 1.0, 10.0, 100.0]),
                           min_size=1, max_size=4, unique=True))
    return X, y, alphas, draw(st.booleans())


def assert_path_matches_closed_form(X, y, alphas, fit_intercept):
    models = train_path(from_dense(X), labels_for(y), ["fat"], alphas,
                        RidgeConfig(fit_intercept=fit_intercept, solver_tol=1e-12,
                                    max_iterations=10_000))
    for alpha, model in zip(alphas, models):
        if fit_intercept:
            w, b = closed_form_with_intercept(X, y, alpha)
        else:
            w, b = closed_form(X, y, alpha), 0.0
        np.testing.assert_allclose(model.weights[0], w, rtol=0, atol=1e-6)
        assert model.intercepts[0] == pytest.approx(b, abs=1e-6)
        assert not model.warnings
    return models


@settings(max_examples=60, deadline=None)
@given(copied_columns())
def test_equal_columns_merge_into_the_same_solution(problem):
    X, y, alphas, fit_intercept = problem
    matrix = from_dense(X)
    merged, group, scale = ridge._merge_equal_columns(matrix)
    # no two unequal columns share a merged column
    np.testing.assert_allclose(merged.toarray()[:, group] / scale, X, rtol=1e-15, atol=0)
    pairs = [(j, k) for j, k in zip(*np.triu_indices(X.shape[1], 1))
             if np.array_equal(X[:, j], X[:, k])]
    # and each set of equal columns is one, unless a near-copy's hash collides
    # with the column it copies (which leaves it, and perhaps that column's
    # copies, unmerged)
    hashes = ridge._column_hashes(matrix, np.count_nonzero(X, axis=0))
    if len({tuple(key) for key in hashes.T}) == len({tuple(column) for column in X.T}):
        assert merged.shape[1] == len({tuple(column) for column in X.T})
        assert all(group[j] == group[k] for j, k in pairs)
    for model in assert_path_matches_closed_form(X, y, alphas, fit_intercept):
        assert all(model.weights[0][j] == model.weights[0][k] for j, k in pairs)


def near_copies():
    """Column 0, a copy of it, four columns that share its nnz, rows or values
    without being copies, and a pair equal to each other only."""
    rng = np.random.default_rng(13)
    first = np.array([1.5, 0.0, -2.0, 0.25, 0.0, 3.0])
    other = rng.normal(size=6)
    subset = first.copy()
    subset[0] = 0.0
    ulp = first.copy()
    ulp[2] = np.nextafter(ulp[2], np.inf)
    return np.stack([first, first, subset, ulp, np.roll(first, 1), 2 * first, other, other],
                    axis=1), rng.random(6) * 5


@pytest.mark.parametrize("fit_intercept", [True, False])
def test_colliding_hashes_merge_only_equal_columns(monkeypatch, fit_intercept):
    # every column hashes alike, so only the entry-by-entry check keeps the
    # near-copies (and the pair equal to each other but not to column 0) apart
    monkeypatch.setattr(ridge, "_column_hashes",
                        lambda matrix, col_nnz: np.zeros((3, matrix.shape[1])))
    X, y = near_copies()
    merged, group, _ = ridge._merge_equal_columns(from_dense(X))
    assert group.tolist() == [0, 0, 1, 2, 3, 4, 5, 6]
    models = assert_path_matches_closed_form(X, y, [0.1, 1.0, 10.0], fit_intercept)
    assert all(model.weights[0][0] == model.weights[0][1] for model in models)


@pytest.mark.parametrize("fit_intercept", [True, False])
def test_repeated_index_keeps_columns_apart(monkeypatch, fit_intercept):
    # row 0 stores column 1 twice, so the products read 1.5 + 1.5 there: with
    # colliding hashes, column 1 has column 0's nnz, and each of its entries
    # has the row and value of one of column 0's, yet the columns differ
    monkeypatch.setattr(ridge, "_column_hashes",
                        lambda matrix, col_nnz: np.zeros((3, matrix.shape[1])))
    matrix = CsrMatrix(data=np.array([1.5, 1.5, 1.5, 2.0]), indices=np.array([0, 1, 1, 0]),
                       indptr=np.array([0, 3, 4, 4]), shape=(3, 2))
    X = np.array([[1.5, 3.0], [2.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(matrix.matvec(np.array([1.0, 10.0])), X @ [1.0, 10.0])
    assert ridge._merge_equal_columns(matrix)[0] is matrix
    y = np.array([1.0, 4.0, 2.5])
    models = train_path(matrix, labels_for(y), ["fat"], [0.1, 1.0],
                        RidgeConfig(fit_intercept=fit_intercept, solver_tol=1e-12))
    for alpha, model in zip([0.1, 1.0], models):
        w = (closed_form_with_intercept(X, y, alpha)[0] if fit_intercept
             else closed_form(X, y, alpha))
        np.testing.assert_allclose(model.weights[0], w, rtol=0, atol=1e-9)


def test_unmerged_matrix_released_before_the_solves(monkeypatch):
    # columns 0 and 1 are equal, so the solves run on a merged copy; the
    # matrix is passed as a builder, as train passes it, so no caller frame
    # holds it on any Python version
    X, y = near_copies()
    refs = []

    def design():
        matrix = from_dense(X)
        refs.append(weakref.ref(matrix))
        return matrix

    alive = []
    solve = ridge._multishift_cg

    def spy(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ridge, "_multishift_cg", spy)
    [model] = train_path(design, labels_for(y), ["fat"])
    assert alive == [False]
    assert model.weights[0][0] == model.weights[0][1]


def four_target_problem():
    """A sparse design and labels whose four scored targets differ."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 30)) * (rng.random((60, 30)) < 0.3)
    values = rng.random((60, len(ALL))) * 10
    return from_dense(X), [NutrientVector(*row) for row in values]


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_grid_models_do_not_depend_on_cpu_count(tmp_path, monkeypatch):
    matrix, labels = four_target_problem()
    pool_sizes = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)

    def saved(name):
        blobs = []
        for i, model in enumerate(train_path(matrix, labels, alphas=[0.1, 1.0, 10.0, 100.0])):
            path = tmp_path / f"{name}-{i}.bin"
            save_model(model, path)
            blobs.append(path.read_bytes())
        return blobs

    unpatched = saved("unpatched")
    set_cpus(monkeypatch, 1)
    one_cpu = saved("one")
    # more workers than cores, switching threads often: a solve that shared
    # another's buffer or rows would change the bytes
    set_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        many_cpus = saved("many")
    finally:
        sys.setswitchinterval(interval)
    assert pool_sizes[1:] == [1, 4]
    assert one_cpu == unpatched == many_cpus


def test_stats_and_warnings_follow_target_order(monkeypatch):
    matrix, labels = four_target_problem()
    targets = ["sugars", "fat", "saturates", "protein"]
    set_cpus(monkeypatch, 4)
    solve = ridge._multishift_cg
    lock = threading.Lock()
    started, finished = [], []
    others_done = threading.Event()

    # the first solve to start waits for the other three to finish
    def first_finishes_last(*args):
        with lock:
            started.append(None)
            first = len(started) == 1
        if first:
            others_done.wait(timeout=10)
        result = solve(*args)
        if not first:
            with lock:
                finished.append(None)
                if len(finished) == len(targets) - 1:
                    others_done.set()
        return result

    monkeypatch.setattr(ridge, "_multishift_cg", first_finishes_last)
    models = train_path(matrix, labels, targets, [0.01, 1.0],
                        RidgeConfig(solver_tol=1e-14, max_iterations=1))
    assert others_done.is_set()
    for model in models:
        assert list(model.solver_stats) == targets
        assert [warning.split("'")[1] for warning in model.warnings] == targets


def test_failed_solve_cancels_queued_solves(monkeypatch):
    matrix, labels = four_target_problem()
    set_cpus(monkeypatch, 1)
    solve = ridge._multishift_cg
    calls = []

    def first_raises(*args):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("solve failed")
        time.sleep(0.2)
        return solve(*args)

    monkeypatch.setattr(ridge, "_multishift_cg", first_raises)
    with pytest.raises(RuntimeError, match="solve failed"):
        train_path(matrix, labels, ALL)
    # the one worker may have started the second solve before the failure
    # reached the caller; the four after it never start
    assert len(calls) <= 2


BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from recipe_nutrients.dataset import NutrientVector
from recipe_nutrients.kernels import from_dense
from recipe_nutrients.ridge import RidgeConfig, train_path
rng = np.random.default_rng(3)
X = rng.random((24, 16384)) * (rng.random((24, 16384)) < 0.02)
labels = [NutrientVector(*row) for row in rng.random((24, 6)) * 10]
models = train_path(from_dense(X), labels, ["fat", "sugars"], [0.1, 1.0],
                    RidgeConfig(max_iterations=30))
print(hashlib.sha256(b"".join(m.weights.tobytes() + m.intercepts.tobytes()
                              for m in models)).hexdigest())
"""


def test_models_do_not_depend_on_blas_threads():
    # over 10,000 features OpenBLAS splits a ddot across its threads, which
    # changes its sum's order; the solver's dot products do not use BLAS
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        digests.add(subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                                   check=True, capture_output=True, text=True).stdout)
    assert len(digests) == 1


class TestPredict:
    def make_model(self, weights, intercepts):
        weights = np.asarray(weights, dtype=np.float64)
        return RidgeModel(targets=["fat", "protein", "saturates", "sugars"],
                          weights=weights,
                          intercepts=np.asarray(intercepts, dtype=np.float64),
                          feature_dim=weights.shape[1], config=RidgeConfig())

    def test_zero_vector_returns_intercepts(self):
        model = self.make_model(np.zeros((4, 3)), [1, 2, 3, 4])
        assert predict(model, from_dense(np.zeros((1, 3)))) == NutrientPrediction(fat=1, protein=2, saturates=3, sugars=4)

    def test_negative_output_clamped(self):
        model = self.make_model(np.full((4, 2), -0.5), [0, 0, 0, 0])
        assert predict(model, sparse_unit(0, 2)).fat == 0.0

    def test_one_hot_probe(self):
        weights = np.arange(8, dtype=np.float64).reshape(4, 2)
        model = self.make_model(weights, [0.5, 0.5, 0.5, 0.5])
        assert predict(model, sparse_unit(1, 2)) == NutrientPrediction(
            fat=1.5, protein=3.5, saturates=5.5, sugars=7.5)

    def test_linear_before_clamp(self):
        model = self.make_model(np.ones((4, 3)), [2, 2, 2, 2])
        x1 = predict(model, sparse_unit(0, 3, 1.0)).to_dict()
        x3 = predict(model, sparse_unit(0, 3, 3.0)).to_dict()
        for key in x1:
            assert x3[key] == pytest.approx(3 * (x1[key] - 2) + 2)

    def test_dim_mismatch(self):
        model = self.make_model(np.zeros((4, 3)), [0, 0, 0, 0])
        with pytest.raises(ValueError, match="dim"):
            predict(model, sparse_unit(0, 5))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 4)) * (rng.random((10, 4)) < 0.6)
        model = self.make_model(rng.normal(size=(4, 4)), rng.normal(size=4))
        batch = predict_batch(model, from_dense(X))
        for i in range(10):
            single = predict(model, from_dense(X[i:i + 1]))
            assert batch[i][0] == pytest.approx(single.fat, abs=1e-12)
            assert batch[i][3] == pytest.approx(single.sugars, abs=1e-12)

    def test_scored_targets_chosen_from_permuted_targets(self):
        # quarters and halves, so every sum is exact in any order and the
        # single-row and batched predictions can be compared bit for bit
        rng = np.random.default_rng(9)
        targets = ["sugars", "energy", "fat", "salt", "saturates", "protein"]
        X = rng.integers(-2, 3, size=(8, 5)) / 2 * (rng.random((8, 5)) < 0.6)
        X[3] = 0.0
        model = RidgeModel(targets=targets, weights=rng.integers(-4, 5, size=(6, 5)) / 4,
                           intercepts=np.arange(6) / 4, feature_dim=5, config=RidgeConfig())
        samples = [SimpleNamespace(id=f"s{i}") for i in range(len(X))]
        batch = cli._predictions(model, from_dense(X), samples)
        for i, sample in enumerate(samples):
            single = predict(model, from_dense(X[i:i + 1]))
            assert single == batch[sample.id]
            raw = dict(zip(targets, X[i] @ model.weights.T + model.intercepts))
            assert single.to_dict() == {n: max(0.0, raw[n]) for n in NutrientPrediction.KEYS}

    def test_missing_scored_target_raises_naming_targets(self):
        model = self.make_model(np.zeros((4, 3)), [0, 0, 0, 0])
        model.targets = ["fat", "protein", "energy", "sugars"]
        with pytest.raises(KeyError, match=r"lacks scored target 'saturates'; "
                                           r"targets: \['fat', 'protein', 'energy', 'sugars'\]"):
            predict(model, sparse_unit(0, 3))

    def test_prediction_validates(self):
        with pytest.raises(ValueError):
            NutrientPrediction(fat=-1, protein=0, saturates=0, sugars=0)


class TestModelSerialization:
    def make_trained(self, dim=6):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, dim)) * (rng.random((12, dim)) < 0.5)
        return train(from_dense(X), labels_for(rng.random(12)), ["fat"],
                     RidgeConfig(alpha=1.0, solver_tol=1e-10))

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.make_trained()
        model.vectorizer_fingerprint = "sha256:abc"
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.targets == model.targets
        assert loaded.feature_dim == model.feature_dim
        assert loaded.config == model.config
        assert loaded.vectorizer_fingerprint == model.vectorizer_fingerprint
        assert loaded.warnings == model.warnings
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.intercepts, model.intercepts)

    def test_wide_model_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        model = RidgeModel(targets=["fat", "protein", "saturates", "sugars"],
                           weights=rng.normal(size=(4, 20_000)),
                           intercepts=rng.normal(size=4),
                           feature_dim=20_000, config=RidgeConfig())
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)

    def test_truncated_file(self, tmp_path):
        model = self.make_trained()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(ValueError, match="corrupted"):
            load_model(path)

    def test_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b'{"format\xff": 2}')
        with pytest.raises(ValueError, match=f"{path}: corrupted model file: 'utf-8' codec"):
            load_model(path)

    def test_solver_stats_round_trip(self, tmp_path):
        model = self.make_trained()
        assert model.solver_stats["fat"].iterations > 0
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert load_model(path).solver_stats == model.solver_stats

    def test_format_1_rejected_with_retrain_hint(self, tmp_path):
        model = self.make_trained()
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = json.loads(path.read_text())
        raw["format_version"] = 1
        del raw["solver_stats"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="version 1.*retrain"):
            load_model(path)

    @pytest.mark.parametrize("key", ["weights", "intercepts"])
    def test_non_finite_arrays_rejected(self, tmp_path, key):
        model = self.make_trained()
        getattr(model, key)[0] = math.nan
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match="not finite"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("warnings", 5), ("warnings", ["ok", 3]),
                                            ("vectorizer_fingerprint", 5),
                                            ("vectorizer_fingerprint", ["sha256:abc"])])
    def test_mistyped_warnings_or_fingerprint_rejected(self, tmp_path, key, value):
        model = self.make_trained()
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = json.loads(path.read_text())
        raw[key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"^{path}: corrupted model file: {key}"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_text('{"format_version": 42}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_payload_length_check(self, tmp_path):
        model = self.make_trained()
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = json.loads(path.read_text())
        raw["feature_dim"] = 999
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="corrupted"):
            load_model(path)
