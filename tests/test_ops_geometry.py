"""The conv kernels' memoized geometry and kept unroll grids.

Each conv kernel works out its geometry once per argument shape, and the
row-run unroll writes into a zero grid kept per thread, dtype and geometry
(fill region included). These tests run the same kernels with the unroll
swapped for the fresh-grid one in tests/oracles.py and ask for the same
bits, on call sequences where a stale cell would show; they also pin the
typed errors, the int-like argument types, the cache bounds and the
thread key.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from fisherprune import ops
from fisherprune.errors import ConfigurationError, DimensionError, is_int

import oracles


def fresh_unroll(x, geometry):
    """ops._unroll's contract on a fresh zero grid, as before grids were kept."""
    _, kh, kw, stride, hp, wp = geometry[:6]
    return oracles.unroll_fresh(x, kh, kw, stride, hp, wp,
                                slice(*geometry[6:9]), slice(*geometry[9:]))


def arrays(result):
    return list(result) if isinstance(result, tuple) else [result]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def assert_matches_fresh_grids(calls):
    """Each call in turn on kept grids gives the bits it gives, in the same
    order, on fresh grids; the kept grids start empty."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_unroll", fresh_unroll)
        want = [arrays(call()) for call in calls]
    ops._kept_grid.cache_clear()
    got = [arrays(call()) for call in calls]
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    return got


@pytest.fixture
def rng():
    return np.random.default_rng(26)


def normal(rng, shape, dtype=np.float32):
    return rng.standard_normal(shape).astype(dtype)


class TestKeptGridsMatchFreshGrids:
    def test_forward_and_param_grads_interleaved_on_one_geometry(self, rng):
        k, b = normal(rng, (4, 3, 3, 3)), normal(rng, 4)
        xs = [normal(rng, (3, 9, 8)) for _ in range(3)]
        gs = [normal(rng, (4, 5, 4)) for _ in range(3)]
        calls = []
        for x, g in zip(xs, gs):
            calls += [lambda x=x: ops.conv2d_forward(x, k, b, 2, 1),
                      lambda x=x, g=g: ops.conv2d_param_grads(x, g, 3, 3, 2, 1)]
        assert_matches_fresh_grids(calls + calls[:1])

    def test_strided_adjoint_and_a_conv_on_one_grid_with_other_fills(self, rng):
        # the stride-2 adjoint back to 7x7 sets its (2, 4, 4) signal on every
        # other cell of a (2, 9, 9) grid; the pad-1 conv of a (2, 7, 7) map
        # fills the whole interior of a grid of the same extents
        k_adj, k_fwd = normal(rng, (2, 3, 3, 3)), normal(rng, (4, 2, 3, 3))
        b = normal(rng, 4)
        adj = ops._adjoint_geometry((2, 4, 4), k_adj.shape, 2, 1, 7, 7)[1]
        fwd = ops._conv_geometry((2, 7, 7), 1, 1, *k_fwd.shape)[-1]
        assert adj[:6] == fwd[:6] and adj[6:] != fwd[6:]
        gs = [normal(rng, (2, 4, 4)) for _ in range(2)]
        xs = [normal(rng, (2, 7, 7)) for _ in range(2)]
        calls = []
        for g, x in zip(gs, xs):
            calls += [lambda g=g: ops.conv2d_adjoint(g, k_adj, 2, 1, out_hw=(7, 7)),
                      lambda x=x: ops.conv2d_forward(x, k_fwd, b, 1, 1)]
        assert_matches_fresh_grids(calls + calls[:1])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_kernels(self, rng, stride):
        """A 1x1 unroll is a view of the kept grid; no result may be one."""
        k, b = normal(rng, (3, 2, 1, 1)), normal(rng, 3)
        xs = [normal(rng, (2, 5, 6)) for _ in range(2)]
        oh, ow = ops.conv_output_hw(5, 6, 1, 1, stride, 0)
        gs = [normal(rng, (3, oh, ow)) for _ in range(2)]
        calls = []
        for x, g in zip(xs, gs):
            calls += [lambda x=x: ops.conv2d_forward(x, k, b, stride),
                      lambda x=x, g=g: ops.conv2d_param_grads(x, g, 1, 1, stride),
                      lambda g=g: ops.conv2d_adjoint(g, k, stride, out_hw=(5, 6))]
        got = assert_matches_fresh_grids(calls)
        first = [a.copy() for a in got[0]]
        for call in calls[3:]:
            call()
        assert_same_bits(got[0], first)

    def test_float32_then_float64_of_one_shape(self, rng):
        k, b = normal(rng, (4, 3, 3, 3)), normal(rng, 4)
        x, g = normal(rng, (3, 8, 8)), normal(rng, (4, 8, 8))
        calls = []
        for dtype in (np.float32, np.float64, np.float32):
            xd, gd = x.astype(dtype), g.astype(dtype)
            calls += [lambda xd=xd: ops.conv2d_forward(xd, k, b, 1, 1),
                      lambda xd=xd, gd=gd: ops.conv2d_param_grads(xd, gd, 3, 3, 1, 1),
                      lambda gd=gd: ops.conv2d_adjoint(gd, k, 1, 1, out_hw=(8, 8))]
        got = assert_matches_fresh_grids(calls)
        assert [a.dtype for a in got[3]] == [np.float64]

    def test_non_finite_input_then_a_finite_one(self, rng):
        k, b = normal(rng, (4, 3, 3, 3)), normal(rng, 4)
        bad, good = normal(rng, (3, 7, 7)), normal(rng, (3, 7, 7))
        bad[0, 1, 2], bad[1, 3, 3], bad[2, 6, 0] = np.nan, np.inf, -np.inf
        gbad, ggood = normal(rng, (4, 4, 4)), normal(rng, (4, 4, 4))
        gbad[1, 0, 3], gbad[3, 2, 2] = np.nan, np.inf
        calls = [lambda: ops.conv2d_forward(bad, k, b, 2, 1),
                 lambda: ops.conv2d_forward(good, k, b, 2, 1),
                 lambda: ops.conv2d_param_grads(bad, ggood, 3, 3, 2, 1),
                 lambda: ops.conv2d_param_grads(good, ggood, 3, 3, 2, 1),
                 lambda: ops.conv2d_adjoint(gbad, k, 2, 1, out_hw=(7, 7)),
                 lambda: ops.conv2d_adjoint(ggood, k, 2, 1, out_hw=(7, 7))]
        with np.errstate(invalid="ignore"):  # NaN * 0 in the GEMMs
            got = assert_matches_fresh_grids(calls)
        for i in (1, 3, 5):
            assert all(np.isfinite(a).all() for a in got[i])


MALFORMED = [
    (lambda x, k, b: ops.conv2d_forward(x, np.ones((2, 4, 3, 3), np.float32), b),
     DimensionError, "kernel expects 4 input channels, feature map has 3"),
    (lambda x, k, b: ops.conv2d_forward(x, np.ones((2, 3, 6, 6), np.float32), b),
     ConfigurationError,
     "conv of 4x4 with kernel 6x6 stride 1 pad 0 produces empty output -1x-1"),
    (lambda x, k, b: ops.conv2d_forward(x, np.ones((2, 3, 0, 3), np.float32), b),
     ConfigurationError, "kernel height must be >= 1, got 0"),
    (lambda x, k, b: ops.conv2d_forward(x, k, b, stride=0),
     ConfigurationError, "stride must be >= 1, got 0"),
    (lambda x, k, b: ops.conv2d_forward(x, k, b, pad=-1),
     ConfigurationError, "pad must be >= 0, got -1"),
    (lambda x, k, b: ops.conv2d_forward(x[0], k, b),
     DimensionError, "conv input must be (C,H,W), got (4, 4)"),
    (lambda x, k, b: ops.conv2d_forward(x, k, np.zeros(5, np.float32)),
     DimensionError, "bias length 5 != out channels 2"),
    (lambda x, k, b: ops.conv2d_forward(x.astype(np.int64), k, b),
     ConfigurationError, "kernel input must be float32 or float64, got int64"),
    (lambda x, k, b: ops.conv2d_adjoint(np.ones((2, 5, 5), np.float32), k,
                                        out_hw=(9, 9)),
     DimensionError, "forward of 9x9 gives (2, 7, 7), signal is (2, 5, 5)"),
    (lambda x, k, b: ops.conv2d_param_grads(x, np.ones((2, 2, 1), np.float32), 3, 3),
     DimensionError, "gradient must be (O,2,2), got (2, 2, 1)"),
    (lambda x, k, b: ops.conv2d_param_grads(x, np.ones((2, 2, 2), np.float32), 5, 5),
     ConfigurationError,
     "conv of 4x4 with kernel 5x5 stride 1 pad 0 produces empty output 0x0"),
    (lambda x, k, b: ops.maxpool_forward(x, 5, 2),
     ConfigurationError, "pool window 5 exceeds input 4x4"),
    (lambda x, k, b: ops.maxpool_forward(x, 2, 0, switches=False),
     ConfigurationError, "stride must be >= 1, got 0"),
]


@pytest.mark.parametrize("call,error,message", MALFORMED)
def test_a_malformed_geometry_raises_the_same_error_on_every_call(
        call, error, message):
    """lru_cache keeps no exception: the first and each repeated call of a
    malformed geometry raise its typed error and message, before and after
    the valid geometries beside it are memoized."""
    x = np.ones((3, 4, 4), np.float32)
    k, b = np.ones((2, 3, 3, 3), np.float32), np.zeros(2, np.float32)
    for _ in range(3):
        with pytest.raises(error) as caught:
            call(x, k, b)
        assert str(caught.value) == message
        ops.conv2d_forward(x, k, b)
        ops.conv2d_adjoint(np.ones((2, 2, 2), np.float32), k, out_hw=(4, 4))
        ops.maxpool_forward(x, 2, 2)


def int_like_calls(rng, v):
    """Every geometry argument of every kernel set to v itself, where 1 is
    valid, so that bools and numpy ints reach the kernels as they are."""
    x, k, k1 = normal(rng, (2, 7, 6)), normal(rng, (3, 2, 3, 3)), normal(rng, (3, 2, 1, 1))
    b, g, g7, g1 = (normal(rng, 3), normal(rng, (3, 5, 4)), normal(rng, (3, 7, 6)),
                    normal(rng, (3, 1, 6)))
    return {
        "forward stride": lambda: ops.conv2d_forward(x, k, b, stride=v),
        "forward pad": lambda: ops.conv2d_forward(x, k, b, pad=v),
        "forward 1x1 stride": lambda: ops.conv2d_forward(x, k1, b, stride=v),
        "grads stride": lambda: ops.conv2d_param_grads(x, g, 3, 3, stride=v),
        "grads pad": lambda: ops.conv2d_param_grads(x, g7, 3, 3, pad=v),
        "grads kernel": lambda: ops.conv2d_param_grads(x, g7, v, v),
        "adjoint stride": lambda: ops.conv2d_adjoint(g, k, stride=v, out_hw=(7, 6)),
        "adjoint pad": lambda: ops.conv2d_adjoint(g7, k, pad=v, out_hw=(7, 6)),
        "adjoint height": lambda: ops.conv2d_adjoint(g1, k1, out_hw=(v, 6)),
        "pool stride": lambda: ops.maxpool_forward(x, 2, v),
        "pool window": lambda: ops.maxpool_forward(x, v, 2),
        "plain pool stride": lambda: ops.maxpool_forward(x, 2, v, switches=False),
        "plain pool window": lambda: ops.maxpool_forward(x, v, 2, switches=False),
    }


def outcome(call):
    """The arrays call returns, or the typed error it raises."""
    try:
        return [a for a in arrays(call()) if a is not None]
    except (ConfigurationError, DimensionError) as exc:
        return exc


def test_int_like_geometry_arguments_keep_their_behaviour():
    """typed memos keep 1.0, True, np.int64(1) and 1 apart, whichever comes
    first: np.int64(1) gives the int results bit for bit, and 1.0 and True
    raise the typed error that names them on every call."""
    values = [1.0, True, np.int64(1), 1, 1.0, True, np.int64(1)]
    seen = [(v, {name: outcome(call) for name, call in
                 int_like_calls(np.random.default_rng(3), v).items()})
            for v in values]
    want = seen[3][1]
    for v, got in seen:
        for name, result in got.items():
            if is_int(v):
                assert_same_bits(result, want[name])
            else:
                assert type(result) is (DimensionError if name == "adjoint height"
                                        else ConfigurationError)
                assert "int" in str(result) and repr(v) in str(result)


def kept_grid_ref(x, kernel):
    """A weak reference to the grid kept for conv2d_forward(x, kernel)."""
    geometry = ops._conv_geometry(x.shape, 1, 0, *kernel.shape)[-1]
    cells = ops._kept_grid(threading.get_ident(), x.dtype, *geometry)[0]
    return weakref.ref(cells.base)


def test_caches_stay_within_their_bounds():
    """200 distinct geometries, pooled with and without switches, leave
    each memo, the kept grids and the scratch buffers at most at their bound,
    and an evicted grid is freed; the pool memo's switch tables are
    read-only."""
    k, b = np.ones((2, 1, 3, 3), np.float32), np.zeros(2, np.float32)
    x = np.ones((1, 3, 3), np.float32)
    ops.conv2d_forward(x, k, b)
    first = kept_grid_ref(x, k)
    assert first() is not None
    for h in range(3, 23):
        for w in range(3, 13):
            x = np.ones((1, h, w), np.float32)
            y = ops.conv2d_forward(x, k, b)
            ops.conv2d_adjoint(y, k, out_hw=(h, w))
            ops.maxpool_forward(x, 2, 1, switches=False)
            ops.maxpool_forward(x, 2, 1)
    for cache in (ops._kept_grid, ops._arena, ops._conv_geometry,
                  ops._adjoint_geometry, ops._pool_geometry):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
    assert ops._kept_grid.cache_info().maxsize <= 32
    for table in ops._pool_geometry((1, 22, 12), 2, 1)[-2:]:
        assert not table.flags.writeable
    gc.collect()
    assert first() is None


def test_threads_never_share_a_grid():
    """4 threads run the three conv kernels on one geometry with their own
    data; every result equals that thread's serial run bit for bit."""
    rng = np.random.default_rng(11)
    k, b = normal(rng, (4, 3, 3, 3)), normal(rng, 4)
    data = [(normal(rng, (3, 10, 10)), normal(rng, (4, 10, 10))) for _ in range(4)]

    def work(x, g):
        return [ops.conv2d_forward(x, k, b, 1, 1),
                *ops.conv2d_param_grads(x, g, 3, 3, 1, 1),
                ops.conv2d_adjoint(g, k, 1, 1, out_hw=(10, 10))]

    serial = [work(x, g) for x, g in data]
    runs = [[] for _ in data]
    errors = []

    def loop(i):
        try:
            for _ in range(150):
                runs[i].append(work(*data[i]))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(len(data))]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for i, got in enumerate(runs):
        assert len(got) == 150
        for result in got:
            assert_same_bits(result, serial[i])
