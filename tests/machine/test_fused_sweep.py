"""The row-tiled fused ADMM sweep against the whole-array fused kernels.

``Executor.fused_admm_sweep`` runs one cuADMM inner iteration tile by tile.
ADMM is separable over factor rows, so the new H and U must be bitwise
equal to the whole-array kernels for every shape, proximity operator and
solve; the four residual norms are sums of per-tile dot products (rtol
1e-12); the divergence magnitude is exact, NaN included; and the charged
kernel stream is the whole-array one.
"""

import math

import numpy as np
import pytest

from repro.linalg.proximal import PROXIMAL_REGISTRY, get_proximal
from repro.machine.executor import SWEEP_TILE_ELEMS, Executor, _row_tiles, sweep_tile_rows
from repro.machine.symbolic import SymArray
from repro.updates.admm import _max_abs

RANKS = (1, 8, 32, 64)
SOLVES = ("cuadmm", "admm_of")


def _tile(rank):
    return SWEEP_TILE_ELEMS // rank


def _row_counts(rank):
    t = _tile(rank)
    return (1, t - 1, t, t + 1, 3 * t + 7)


def _operands(rows, rank, seed=0):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((3 * rank, rank))
    s = basis.T @ basis
    rho = float(np.trace(s)) / rank
    l_factor = np.linalg.cholesky(s + rho * np.eye(rank))
    m = rng.standard_normal((rows, rank)) * 3.0
    h = rng.random((rows, rank))
    u = rng.standard_normal((rows, rank)) * 0.1
    return m, h, u, rho, l_factor


def _g_inv(ex, solve, l_factor):
    return ex.spd_inverse(l_factor) if solve == "cuadmm" else None


def _whole(ex, op, m, h, u, rho, l_factor, g_inv):
    """The whole-array fused iteration: one call per kernel."""
    h_aux = ex.fused_auxiliary(m, h, u, rho)
    if g_inv is not None:
        h_bar = ex.gemm(h_aux, g_inv, name="dgemm_apply_inverse")
    else:
        h_bar = ex.cholesky_solve(l_factor, h_aux.T).T
    h_new = ex.fused_prox_primal(op, h_bar, u, rho)
    u_new, *norms = ex.fused_dual_update(u, h_new, h_bar, h)
    return h_new, u_new, norms


class TestRowTiles:
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 8, 9, 16, 17])
    def test_tiles_cover_rows_without_a_lone_trailing_row(self, rows):
        tiles = list(_row_tiles(rows, 4))
        assert tiles[0][0] == 0 and tiles[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        assert all(0 < stop - start <= 4 for start, stop in tiles)
        if rows > 1:
            assert all(stop - start > 1 for start, stop in tiles)

    def test_tile_rows(self):
        assert sweep_tile_rows(get_proximal("nonneg"), 100_000, 32) == 512
        assert sweep_tile_rows(get_proximal("nonneg"), 300, 32) == 300
        assert sweep_tile_rows(get_proximal("nonneg"), 10, 50_000) == 2
        assert sweep_tile_rows(get_proximal("simplex"), 100_000, 32) == 100_000
        assert sweep_tile_rows(get_proximal("smooth"), 100_000, 32) == 100_000


@pytest.mark.parametrize("solve", SOLVES)
@pytest.mark.parametrize("constraint", sorted(PROXIMAL_REGISTRY))
@pytest.mark.parametrize("rank", RANKS)
def test_bitwise_equal_to_whole_array_kernels(rank, constraint, solve):
    op = get_proximal(constraint)
    for rows in _row_counts(rank):
        m, h, u, rho, l_factor = _operands(rows, rank, seed=rows)
        ex = Executor("a100")
        g_inv = _g_inv(ex, solve, l_factor)
        h_ref, u_ref, norms_ref = _whole(ex, op, m, h, u, rho, l_factor, g_inv)
        h_new, u_new, *norms, peak = ex.fused_admm_sweep(op, m, h, u, rho, l_factor, g_inv)
        assert np.array_equal(h_new, h_ref), rows
        assert np.array_equal(u_new, u_ref), rows
        np.testing.assert_allclose(norms, norms_ref, rtol=1e-12, atol=0)
        assert peak == max(_max_abs(h_ref), _max_abs(u_ref))


@pytest.mark.parametrize("solve", SOLVES)
def test_reused_buffers_are_bitwise_equal_to_fresh_ones(solve):
    rank, rows = 8, 3 * _tile(8) + 7
    op = get_proximal("nonneg")
    m, h, u, rho, l_factor = _operands(rows, rank)
    ex = Executor("a100")
    g_inv = _g_inv(ex, solve, l_factor)
    fresh = ex.fused_admm_sweep(op, m, h, u, rho, l_factor, g_inv)
    tile = sweep_tile_rows(op, rows, rank)
    h_out, u_out = np.full((rows, rank), np.nan), np.full((rows, rank), np.nan)
    scratch = (np.full((tile, rank), np.nan), np.full((tile, rank), np.nan))
    reused = ex.fused_admm_sweep(op, m, h, u, rho, l_factor, g_inv,
                                 h_out=h_out, u_out=u_out, scratch=scratch)
    assert reused[0] is h_out and reused[1] is u_out
    for a, b in zip(fresh, reused):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("rank", RANKS)
def test_residual_ratios_match_whole_array_dot_products(rank):
    rows = 3 * _tile(rank) + 7
    op = get_proximal("nonneg")
    m, h, u, rho, l_factor = _operands(rows, rank, seed=3)
    ex = Executor("a100")
    h_new, u_new, r_primal, h_norm, r_dual, u_norm, _ = ex.fused_admm_sweep(
        op, m, h, u, rho, l_factor, ex.spd_inverse(l_factor))
    h_ref, u_ref, (rp, hn, rd, un) = _whole(
        ex, op, m, h, u, rho, l_factor, ex.spd_inverse(l_factor))
    assert r_primal / h_norm == pytest.approx(rp / hn, rel=1e-12, abs=0)
    assert r_dual / u_norm == pytest.approx(rd / un, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_tile_gives_the_whole_array_magnitude(bad, where):
    rank = 8
    tile = _tile(rank)
    rows = 3 * tile + 7
    row = {"first": 5, "middle": tile + 17, "last": rows - 1}[where]
    op = get_proximal("unconstrained")
    m, h, u, rho, l_factor = _operands(rows, rank, seed=4)
    m[row, 2] = bad
    ex = Executor("a100")
    g_inv = ex.spd_inverse(l_factor)
    h_ref, u_ref, _ = _whole(ex, op, m, h, u, rho, l_factor, g_inv)
    hi, ui = _max_abs(h_ref), _max_abs(u_ref)
    expected = math.nan if math.isnan(hi) or math.isnan(ui) else max(hi, ui)
    *_, peak = ex.fused_admm_sweep(op, m, h, u, rho, l_factor, g_inv)
    assert not math.isfinite(peak)
    if math.isnan(expected):
        assert math.isnan(peak)
    else:
        assert peak == expected


def _stream(ex):
    return [
        (r.name, r.phase, r.flops, r.bytes_read, r.bytes_written, r.parallel_work,
         r.launches, r.serial_steps, r.compute_efficiency)
        for r in ex.timeline.records
    ]


class TestKernelStream:
    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("rows", [1, 511, 513, 5000])
    def test_concrete_stream_equals_whole_array(self, solve, rows):
        rank = 32
        op = get_proximal("nonneg")
        m, h, u, rho, l_factor = _operands(rows, rank)
        g_inv = _g_inv(Executor("a100"), solve, l_factor)
        ex_whole, ex_sweep = Executor("a100", keep_records=True), Executor("a100", keep_records=True)
        _whole(ex_whole, op, m, h, u, rho, l_factor, g_inv)
        ex_sweep.fused_admm_sweep(op, m, h, u, rho, l_factor, g_inv)
        names = [r[0] for r in _stream(ex_sweep)]
        solve_names = ["dgemm_apply_inverse"] if g_inv is not None else ["dtrsm_fwd", "dtrsm_bwd"]
        assert names == ["fused_auxiliary", *solve_names, "fused_prox_primal", "fused_dual_update"]
        assert _stream(ex_sweep) == _stream(ex_whole)
        assert ex_sweep.timeline.total_seconds() == ex_whole.timeline.total_seconds()

    @pytest.mark.parametrize("solve", SOLVES)
    def test_symbolic_stream_equals_concrete(self, solve):
        rows, rank = 5000, 32
        op = get_proximal("nonneg")
        m, h, u, rho, l_factor = _operands(rows, rank)
        ex_c = Executor("h100", keep_records=True)
        ex_c.fused_admm_sweep(op, m, h, u, rho, l_factor,
                              _g_inv(Executor("h100"), solve, l_factor))
        ex_s = Executor("h100", keep_records=True)
        sym = SymArray((rows, rank))
        g_sym = SymArray((rank, rank)) if solve == "cuadmm" else None
        h_new, u_new, *scalars = ex_s.fused_admm_sweep(
            op, sym, sym, sym, 1.0, SymArray((rank, rank)), g_sym)
        assert isinstance(h_new, SymArray) and isinstance(u_new, SymArray)
        assert h_new.shape == u_new.shape == (rows, rank)
        assert all(math.isnan(x) for x in scalars)
        assert _stream(ex_s) == _stream(ex_c)

    def test_failed_forward_solve_charges_what_the_whole_array_loop_did(self):
        rows, rank = 3 * _tile(8) + 7, 8
        op = get_proximal("nonneg")
        m, h, u, rho, l_factor = _operands(rows, rank)
        m[rows - 3, 0] = np.nan
        ex_whole, ex_sweep = Executor("a100", keep_records=True), Executor("a100", keep_records=True)
        with pytest.raises(ValueError):
            _whole(ex_whole, op, m, h, u, rho, l_factor, None)
        with pytest.raises(ValueError):
            ex_sweep.fused_admm_sweep(op, m, h, u, rho, l_factor, None)
        assert _stream(ex_sweep) == _stream(ex_whole)
        assert [r[0] for r in _stream(ex_sweep)] == ["fused_auxiliary", "dtrsm_fwd"]
