"""Property tests: the vectorized M61 kernels against the scalar reference,
on edge values, random canonical elements and every ``out=`` aliasing case."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ipsim import m61
from ipsim.m61 import Q, fadd, fmul, fsub
from references import lagrange_eval

EDGE = [0, 1, Q - 1, Q - 2, (1 << 31) - 1, 1 << 31, (1 << 60) + 7]
KERNELS = [(m61.vmul, fmul), (m61.vadd, fadd), (m61.vsub, fsub)]

elements = st.one_of(st.sampled_from(EDGE), st.integers(0, Q - 1))


@st.composite
def operand_pairs(draw, max_size=48):
    n = draw(st.integers(1, max_size))
    a = draw(st.lists(elements, min_size=n, max_size=n))
    b = draw(st.lists(elements, min_size=n, max_size=n))
    return a, b


def arr(values):
    return np.array(values, dtype=np.uint64)


def check_all_out_forms(kernel, ref, a, b):
    """Fresh result, separate out, out=a and out=b all equal the scalar ref."""
    want = [ref(x, y) for x, y in zip(a, b)]
    A, B = arr(a), arr(b)
    assert kernel(A, B).tolist() == want
    out = np.empty_like(A)
    assert kernel(A, B, out=out) is out
    assert out.tolist() == want
    a_alias = A.copy()
    kernel(a_alias, B, out=a_alias)
    assert a_alias.tolist() == want
    b_alias = B.copy()
    kernel(A, b_alias, out=b_alias)
    assert b_alias.tolist() == want
    assert (A.tolist(), B.tolist()) == (a, b)  # inputs untouched without aliasing


@given(operand_pairs())
def test_array_kernels_match_scalar(pair):
    a, b = pair
    for kernel, ref in KERNELS:
        check_all_out_forms(kernel, ref, a, b)


@given(operand_pairs(), elements)
def test_scalar_operand_matches_scalar(pair, y):
    a, _ = pair
    for kernel, ref in KERNELS:
        want = [ref(x, y) for x in a]
        assert kernel(arr(a), y).tolist() == want
        assert kernel(arr(a), np.uint64(y)).tolist() == want
        alias = arr(a)
        kernel(alias, y, out=alias)
        assert alias.tolist() == want


def test_edge_value_cross_products():
    a = [x for x in EDGE for _ in EDGE]
    b = [y for _ in EDGE for y in EDGE]
    for kernel, ref in KERNELS:
        check_all_out_forms(kernel, ref, a, b)


def test_chunked_and_strided_operands():
    # longer than one vmul chunk, not a multiple of it, and through strided views
    g = np.random.default_rng(0)
    n = 2 * m61.CHUNK + 5
    a = g.integers(0, Q, 2 * n, dtype=np.uint64)
    a[: len(EDGE)] = EDGE
    b = g.integers(0, Q, n, dtype=np.uint64)
    b[-len(EDGE) :] = EDGE
    view = a[1::2]
    for kernel, ref in KERNELS:
        want = [ref(int(x), int(y)) for x, y in zip(view, b)]
        assert kernel(view, b).tolist() == want
        alias = b.copy()
        kernel(view, alias, out=alias)
        assert alias.tolist() == want
        y = int(b[3])
        assert kernel(view, y).tolist() == [ref(int(x), y) for x in view]


def test_vmul_shapes_broadcasts_and_aliasing():
    # full, broadcast and scalar b, with out separate and out aliasing a: a
    # 2-D array over CHUNK elements in one pass, a smaller one, and a 1-D one
    # over chunks
    g = np.random.default_rng(5)
    for shape in ((3, m61.CHUNK // 2 + 7), (6, 35), (2 * m61.CHUNK + 5,)):
        a = g.integers(0, Q, shape, dtype=np.uint64)
        a.reshape(-1)[: len(EDGE)] = EDGE
        for b in (g.integers(0, Q, shape, dtype=np.uint64), g.integers(0, Q, shape[-1:], dtype=np.uint64), Q - 1):
            full = np.broadcast_to(np.asarray(b, dtype=np.uint64), shape)
            want = [fmul(int(x), int(y)) for x, y in zip(a.ravel(), full.ravel())]
            assert m61.vmul(a, b).ravel().tolist() == want
            alias = a.copy()
            m61.vmul(alias, b, out=alias)
            assert alias.ravel().tolist() == want


def test_two_dimensional_operands():
    g = np.random.default_rng(1)
    a = g.integers(0, Q, (7, 33), dtype=np.uint64)
    b = g.integers(0, Q, (7, 33), dtype=np.uint64)
    for kernel, ref in KERNELS:
        out = kernel(a, b)
        assert out.shape == a.shape
        assert out.ravel().tolist() == [ref(int(x), int(y)) for x, y in zip(a.ravel(), b.ravel())]


def test_broadcast_operand():
    # vmul, vadd and vsub broadcast a smaller b over a, also into out=a
    g = np.random.default_rng(2)
    a = g.integers(0, Q, (3, 4, 5), dtype=np.uint64)
    a[0, 0, : len(EDGE) - 2] = EDGE[2:]
    b = g.integers(0, Q, (3, 1, 5), dtype=np.uint64)
    b[0, 0, :] = EDGE[:5]
    full = np.broadcast_to(b, a.shape)
    for kernel, ref in KERNELS:
        want = [ref(int(x), int(y)) for x, y in zip(a.ravel(), full.ravel())]
        assert kernel(a, b).ravel().tolist() == want
        alias = a.copy()
        kernel(alias, b, out=alias)
        assert alias.ravel().tolist() == want


def _int_matmul(a, b):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % Q for col in b.T] for row in a]


@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 4), st.lists(elements, min_size=72, max_size=72))
def test_matmul_matches_int_products(rows, inner, cols, values):
    a = arr((values * 2)[: rows * inner]).reshape(rows, inner)
    b = arr((values[::-1] * 2)[: inner * cols]).reshape(inner, cols)
    assert m61.matmul(a, b).tolist() == m61.matmul(m61.split(a), b).tolist() == _int_matmul(a, b)


def test_matmul_into_caller_owned_limbs():
    # one limb pair serves a larger product across a GEMM block boundary and
    # then a smaller one; each result is a fresh array, apart from the limbs
    g = np.random.default_rng(4)
    shapes = [(3, 2 * m61.GEMM_BLOCK + 5, 3), (2, m61.GEMM_BLOCK, 3), (2, 7, 1)]
    rows, inner, cols = shapes[0]
    scratch = np.empty(3 * (rows + cols) * m61.GEMM_BLOCK)
    limbs = scratch[: 3 * rows * m61.GEMM_BLOCK], scratch[3 * rows * m61.GEMM_BLOCK :]
    results = []
    for rows, inner, cols in shapes:
        a = g.integers(0, Q, (rows, inner), dtype=np.uint64)
        b = g.integers(0, Q, (inner, cols), dtype=np.uint64)
        a[0, : len(EDGE)] = EDGE
        result = m61.matmul(a, b, limbs=limbs)
        assert result.tolist() == _int_matmul(a, b)
        assert not np.shares_memory(result, scratch)
        results.append((result, result.copy()))
    for result, first in results:  # later calls left earlier results alone
        assert np.array_equal(result, first)


def test_matmul_at_the_limb_magnitude_limit():
    # the canonical element with the largest low limbs, 2^21 - 1 twice, and
    # Q - 1, over one full GEMM block and across a block boundary
    top = ((1 << 21) - 1) * (1 + (1 << 21)) + (((1 << 19) - 2) << 42)
    assert top < Q
    for value in (top, Q - 1):
        for inner in (m61.GEMM_BLOCK, 2 * m61.GEMM_BLOCK + 1):
            a = np.full((2, inner), value, dtype=np.uint64)
            b = np.full((inner, 3), value, dtype=np.uint64)
            want = inner * value * value % Q
            assert m61.matmul(a, b).tolist() == m61.matmul(m61.split(a), b).tolist() == [[want] * 3] * 2


@given(st.lists(elements, max_size=64))
def test_vsum_matches_int_sum(values):
    assert m61.vsum(arr(values)) == sum(values) % Q


@given(st.integers(1, 5), st.lists(elements, min_size=1, max_size=20))
def test_vsum_rows_match_int_sums(rows, row):
    table = np.array([row[i:] + row[:i] for i in range(rows)], dtype=np.uint64)
    want = [sum(int(x) for x in r) % Q for r in table]
    assert m61.vsum_rows(table) == want
    assert m61.vsum(table) == sum(want) % Q


@given(st.lists(st.tuples(st.integers(0, 6), elements), max_size=64), st.integers(0, 3))
def test_grouped_sums_match_int_sums(entries, spare):
    size = max((i for i, _ in entries), default=-1) + 1 + spare  # ids never drawn sum to 0
    want = [sum(v for i, v in entries if i == s) % Q for s in range(size)]
    ids = np.array([i for i, _ in entries], dtype=np.intp)
    assert m61.grouped_sums(ids, arr([v for _, v in entries]), size).tolist() == want


def test_grouped_sums_of_many_maximal_elements():
    # 2^20 copies of Q - 1 in one group and one copy in another
    ids = np.zeros((1 << 20) + 1, dtype=np.intp)
    ids[-1] = 1
    sums = m61.grouped_sums(ids, np.full(ids.size, Q - 1, dtype=np.uint64), 2)
    assert sums.tolist() == [((Q - 1) << 20) % Q, Q - 1]


def test_vsum_of_many_maximal_elements():
    # 2^20 copies of Q - 1: the halves' totals stay exact far below overflow
    a = np.full(1 << 20, Q - 1, dtype=np.uint64)
    assert m61.vsum(a) == ((Q - 1) << 20) % Q


def _reference_node_eval(values, t, weights):
    """The per-node form StreamedNodeEval replaced: one inversion per node."""
    t %= Q
    ell, acc, hit = 1, 0, None
    for j, v in enumerate(values):
        v %= Q
        if t == j % Q:
            hit = v
        diff = fsub(t, j)
        if diff != 0:
            ell = fmul(ell, diff)
            acc = fadd(acc, fmul(weights[j], fmul(v, m61.finv(diff))))
    return (values[0] % Q, values[1] % Q, hit if hit is not None else fmul(ell, acc))


@st.composite
def node_messages(draw):
    num_nodes = draw(st.integers(2, 40))
    values = draw(st.lists(st.one_of(elements, st.integers(Q, 2 * Q)), min_size=num_nodes, max_size=num_nodes))
    t = draw(
        st.one_of(
            elements,
            st.integers(0, num_nodes - 1),  # t on a node
            st.integers(Q, Q + num_nodes - 1),  # on a node after reduction
        )
    )
    weights = draw(st.one_of(st.just(m61.lagrange_weights(num_nodes)), st.lists(elements, min_size=num_nodes, max_size=num_nodes)))
    return values, t, weights


@given(node_messages())
def test_streamed_node_eval_matches_per_node_inversions(message):
    values, t, weights = message
    ev = m61.StreamedNodeEval(t, len(values), weights)
    for v in values:
        ev.feed(v)
    want = _reference_node_eval(values, t, weights)
    assert (ev.at_zero, ev.at_one, ev.result()) == want
    assert lagrange_eval(values, t, weights) == want[2]


def test_streamed_node_eval_needs_no_inversion(monkeypatch):
    values = [3, 1, 4, 1, 5, 9, 2, 6]
    weights = m61.lagrange_weights(8)
    want = _reference_node_eval(values, 12345, weights)[2]

    def no_inverse(a):
        raise AssertionError("node evaluation called finv")

    monkeypatch.setattr(m61, "finv", no_inverse)
    ev = m61.StreamedNodeEval(12345, 8, weights)
    for v in values:
        ev.feed(v)
    assert ev.result() == want
    assert lagrange_eval(values, 12345, weights) == want
