"""The sparse products of the pipeline, checked against two oracles.

Every product the models and NMF compute with `FootprintMatrix.times` and
`t_times` is compared with the same product on the dense matrix, and to the
last bit with scipy's `csr_matrix` product, whose compiled kernels they call,
over generated binary footprints that include empty rows, zero users and
zero items.
"""

import importlib.machinery
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from footcloak import _util, models
from footcloak.data import FootprintMatrix, from_rows
from footcloak.models import LinearModel, decision_margins, logreg_value_and_grad

from conftest import random_footprints
from oracles import dense, scipy_csr

_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def footprints(draw, max_users=12, max_items=10, min_items=1):
    n_items = draw(st.integers(min_items, max_items))
    n_users = draw(st.integers(0, max_users))
    items = st.integers(0, n_items - 1) if n_items else st.nothing()
    rows = [
        np.array(sorted(draw(st.sets(items, max_size=n_items))), dtype=np.int64)
        for _ in range(n_users)
    ]
    users = tuple(f"u{i}" for i in range(n_users))
    items = tuple(f"i{j}" for j in range(n_items))
    return from_rows(rows, n_items, users, items)


def _floats(shape, lo=-5.0, hi=5.0):
    return arrays(np.float64, shape, elements=st.floats(lo, hi))


@st.composite
def _operands(draw, n_rows):
    """A right operand of n_rows rows: a vector, one column, or k columns
    in C or in Fortran order."""
    form = draw(st.sampled_from(("vector", "column", "C", "F")))
    if form == "vector":
        return draw(_floats((n_rows,), -1e3, 1e3))
    k = 1 if form == "column" else draw(st.integers(2, 5))
    V = draw(_floats((n_rows, k), -1e3, 1e3))
    return np.asfortranarray(V) if form == "F" else V


@_SETTINGS
@given(data=st.data(), m=footprints(min_items=0))
def test_products_and_column_means_match_scipy_bit_for_bit(data, m: FootprintMatrix):
    # the kernels scipy's CSR and CSC products call, on the arrays and with
    # the operand layout scipy passes them, give scipy's bits; so does the
    # ridge's column mean, against csr_matrix.mean(axis=0)
    X = scipy_csr(m)
    for product, oracle, n_rows in (
        (m.times, X, m.n_items),
        (m.t_times, X.T, m.n_users),
    ):
        V = data.draw(_operands(n_rows))
        got, want = product(V), oracle @ V
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    if m.n_users:
        want = np.asarray(X.mean(axis=0)).ravel()
        assert np.array_equal(models._column_means(m), want)


def test_index_arrays_are_stored_once_read_only():
    # indptr and indices share one index type: int32 while nnz, n_users and
    # n_items fit, int64 past that (no array here has 2**31 entries). Neither
    # can be written, so no product reads a structure the rows do not show;
    # the caller's own arrays keep their flags.
    indptr, indices = np.array([0, 2, 3], np.int32), np.array([0, 4, 1], np.int32)
    m = FootprintMatrix(indptr, indices, 5, ("u0", "u1"), tuple("abcde"))
    assert m.indptr.dtype == m.indices.dtype == np.int32
    assert indptr.flags.writeable and indices.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m.row(0)[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        m.indices[0] = 1
    v = np.array([1.0, 10.0, 0.0, 0.0, 100.0])
    assert m.times(v).tolist() == m.select_users(np.arange(2)).times(v).tolist()
    assert m.times(v).tolist() == [101.0, 10.0]
    wide = FootprintMatrix(indptr.astype(np.int64), indices, 2**31, ("u0", "u1"), ())
    keep = np.array([True, False, True])
    for w in (wide, wide.select_users(np.array([1, 0])), wide.keep_entries(keep)):
        assert w.indptr.dtype == w.indices.dtype == np.int64


def test_first_product_allocates_only_its_output():
    # a product reads the matrix's own index arrays and a view of the shared
    # ones, so a matrix's first product allocates its output and a few small
    # objects, no copy of its structure (36k entries here)
    m = random_footprints(np.random.default_rng(0), 400, 300, density=0.3)
    m.times(np.ones(m.n_items))  # the shared ones now cover this many entries
    for product, n_rows in (("times", m.n_items), ("t_times", m.n_users)):
        fresh = m.select_users(np.arange(m.n_users))  # never multiplied
        V = np.ones((n_rows, 2))
        tracemalloc.start()
        try:
            out = getattr(fresh, product)(V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4096


def test_sparsetools_missing_or_without_a_product_is_an_import_error(monkeypatch):
    # the products need scipy's compiled kernels: a file without one of
    # them, or with one that takes other arguments, is an ImportError that
    # names the file, never a fallback
    class Incomplete:  # the extension less the kernel `absent`, with `kernel`
        def __init__(self, name, path):
            pass

        def create_module(self, spec):
            return None

        def exec_module(self, module):
            for name in set(_util._SPARSE_PRODUCTS) - {absent}:
                setattr(module, name, kernel)

    def one_argument_short(*args):  # as a kernel's thunk fails on 6 of 7
        return args[len(args)]

    kernel = print
    for absent in _util._SPARSE_PRODUCTS:
        with monkeypatch.context() as patch:
            patch.setattr(importlib.machinery, "ExtensionFileLoader", Incomplete)
            with pytest.raises(
                ImportError, match=rf"sparse[/\\]_sparsetools\S*: has no {absent}$"
            ):
                _util.sparsetools.__wrapped__()
    absent = None
    for kernel, error in [
        (one_argument_short, "csr_matvec fails a 1x1 product: tuple index"),
        (lambda *args: None, "csr_matvec gives 0.0 for 1 \\* 2$"),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(importlib.machinery, "ExtensionFileLoader", Incomplete)
            with pytest.raises(ImportError, match=rf"sparse[/\\]_sparsetools\S*: {error}"):
                _util.sparsetools.__wrapped__()
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".none"])
    with pytest.raises(ImportError, match="extension sparse/_sparsetools not found"):
        _util.sparsetools.__wrapped__()


@_SETTINGS
@given(data=st.data(), m=footprints())
def test_decision_margins_matches_dense(data, m: FootprintMatrix):
    w = data.draw(_floats((m.n_items,)))
    b = data.draw(st.floats(-5.0, 5.0))
    got = decision_margins(LinearModel(w, b, 1.0), m)
    assert got.shape == (m.n_users,)
    np.testing.assert_allclose(got, dense(m) @ w + b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("width", [4, 6])
def test_decision_margins_rejects_another_item_space(width):
    # a model one item narrower or wider than the matrix is an error that
    # names both widths, never a silent pad or cut
    m = from_rows([np.array([0, 4])], 5, ("u0",), tuple(f"i{j}" for j in range(5)))
    model = LinearModel(np.ones(width), 0.0, 1.0)
    message = f"^model covers {width} items; the matrix has 5$"
    with pytest.raises(ValueError, match=message):
        decision_margins(model, m)


@_SETTINGS
@given(data=st.data(), m=footprints())
def test_logistic_gradient_matches_dense(data, m: FootprintMatrix):
    # the gradient's X^T v, and the value's X w, against the dense formulas
    y01 = data.draw(_floats((m.n_users,), 0.0, 1.0)).round()
    w = data.draw(_floats((m.n_items,)))
    b, C = 0.3, 2.0
    X = dense(m)
    y = 2.0 * y01 - 1.0
    z = y * (X @ w + b)
    coef = C * (-y / (1.0 + np.exp(z)))
    value, grad_w, grad_b = logreg_value_and_grad(m, y01, w, b, C)
    np.testing.assert_allclose(
        value, 0.5 * w @ w + C * np.logaddexp(0.0, -z).sum(), rtol=1e-12
    )
    np.testing.assert_allclose(grad_w, w + X.T @ coef, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad_b, coef.sum(), rtol=1e-12, atol=1e-12)


@_SETTINGS
@given(data=st.data(), m=footprints(), k=st.integers(1, 4))
def test_nmf_products_match_dense(data, m: FootprintMatrix, k):
    # the two products of an NMF iteration: X H^T and W^T X
    W = data.draw(_floats((m.n_users, k), 0.0, 1.0))
    H = data.draw(_floats((k, m.n_items), 0.0, 1.0))
    X = dense(m)
    XHt = m.times(H.T)
    WtX = m.t_times(W).T
    assert XHt.shape == (m.n_users, k) and WtX.shape == (k, m.n_items)
    np.testing.assert_allclose(XHt, X @ H.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(WtX, W.T @ X, rtol=1e-12, atol=1e-12)


def test_zero_size_inputs():
    m = from_rows([], 3, (), ("a", "b", "c"))
    assert dense(m).shape == (0, 3)
    assert decision_margins(LinearModel(np.ones(3), 0.5, 1.0), m).shape == (0,)
    np.testing.assert_allclose(m.t_times(np.empty(0)), np.zeros(3))
    assert m.times(np.ones((2, 3)).T).shape == (0, 2)
    np.testing.assert_allclose(m.t_times(np.empty((0, 2))).T, np.zeros((2, 3)))
