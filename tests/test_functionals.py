"""Turning angles, torsion angles, and local window functionals."""
import math

import numpy as np
import pytest
from scipy import stats

from symmpoly import (DegenerateEdgeError, DegenerateTorsionError,
                      DomainError, InvalidDimensionError, InvalidSizeError,
                      LocalFunctional, Polygon, SeedStream, sample_pol,
                      sliding_window_apply, torsion_angles, total_curvature,
                      total_torsion, turning_angles)
from symmpoly.ensembles import functional_samples
from symmpoly.functionals import (_BLOCK, _EDGE_TINY, _PROJ_TINY,
                                  _batch_torsion, _batch_turning)
from symmpoly.polygons import space_edges_batch

SEED = 7

SQUARE2 = Polygon(dim=2, closed=True, edges=[[1, 0], [0, 1], [-1, 0], [0, -1]])
SQUARE3 = Polygon(dim=3, closed=True,
                  edges=[[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])


def turning_angle(u, v):
    """The turning kernel on the one open window (u, v)."""
    angles, ok = _batch_turning(np.array([u, v], dtype=float)[None], closed=False)
    assert ok[0]
    return float(angles[0, 0])


def torsion_angle(a, b, c):
    """The torsion kernel on the one open window (a, b, c)."""
    taus, ok = _batch_torsion(np.array([a, b, c], dtype=float)[None], closed=False)
    assert ok[0]
    return float(taus[0, 0])


def test_turning_angle_units():
    assert turning_angle([1, 0], [1, 0]) == 0.0
    assert abs(turning_angle([1, 0], [0, 1]) - math.pi / 2) < 1e-15
    assert abs(turning_angle([1, 0], [-1, 0]) - math.pi) < 1e-15
    assert abs(turning_angle([1, 0, 0], [0, 0, 2]) - math.pi / 2) < 1e-15
    # scale of either argument is irrelevant
    assert turning_angle([3, 0], [0, 0.01]) == turning_angle([1, 0], [0, 1])


def test_torsion_angle_units():
    assert torsion_angle([1, 0, 0], [0, 0, 1], [-1, 0, 0]) == 0.0
    assert abs(torsion_angle([1, 0, 0], [0, 0, 1], [1, 0, 0]) - math.pi) < 1e-15
    assert abs(torsion_angle([1, 0, 0], [0, 0, 1], [0, 1, 0])
               - math.pi / 2) < 1e-15
    assert abs(torsion_angle([1, 0, 0], [0, 0, 1], [0, -1, 0])
               + math.pi / 2) < 1e-15


def test_angles_do_not_depend_on_the_edge_layout():
    # the kernels' sums depend, in the last bit, on the memory layout of the
    # edges; C-ordered, Fortran-ordered and strided copies give equal bits
    edges = space_edges_batch(SeedStream(SEED, 2).generator(), 200, "arm3", 50)
    padded = np.zeros((200, 50, 6))
    padded[..., ::2] = edges
    for e, strided in zip(edges, padded[..., ::2]):
        polys = [Polygon(dim=3, closed=False, edges=x)
                 for x in (e, np.asfortranarray(e), strided)]
        for angles in (turning_angles, torsion_angles):
            first, *rest = (angles(p) for p in polys)
            for other in rest:
                assert np.array_equal(first, other)


def _projection_torsion(edges, closed):
    """The torsion kernel as first written: project a and c onto the plane
    normal to b and take the signed angle between the projections."""
    if closed:
        a, b, c = edges, np.roll(edges, -1, axis=1), np.roll(edges, -2, axis=1)
    else:
        a, b, c = edges[:, :-2], edges[:, 1:-1], edges[:, 2:]
    nb = np.linalg.norm(b, axis=-1)
    ok = np.all(nb > _EDGE_TINY, axis=-1)
    bh = b / np.where(nb > _EDGE_TINY, nb, 1.0)[..., None]
    u = a - np.einsum("cij,cij->ci", a, bh)[..., None] * bh
    w = c - np.einsum("cij,cij->ci", c, bh)[..., None] * bh
    ok &= np.all(np.linalg.norm(u, axis=-1) > _PROJ_TINY, axis=-1)
    ok &= np.all(np.linalg.norm(w, axis=-1) > _PROJ_TINY, axis=-1)
    phi = np.arctan2(np.einsum("cij,cij->ci", np.cross(bh, u), w),
                     np.einsum("cij,cij->ci", u, w))
    tau = math.pi - phi
    return np.where(tau > math.pi, tau - 2.0 * math.pi, tau), ok


def _gap_mod_2pi(x, y):
    return np.abs(np.angle(np.exp(1j * (x - y))))


def test_torsion_kernel_matches_projection_formula():
    for space, closed in (("pol3", True), ("arm3", False)):
        rng = SeedStream(SEED, 2).generator()
        edges = space_edges_batch(rng, 512, space, 100)
        tau, ok = _batch_torsion(edges, closed)
        ref, ref_ok = _projection_torsion(edges, closed)
        assert tau.shape == (512, 100 if closed else 98)
        assert np.array_equal(ok, ref_ok) and ok.all()
        assert np.max(_gap_mod_2pi(tau, ref)) < 1e-12
        assert np.all((tau > -math.pi) & (tau <= math.pi))


def test_torsion_mask_near_degenerate_windows():
    # Windows with a neighbor within 1e-13 of the b axis are excluded; the
    # cut is on the neighbor's projection normal to b, at any length of b.
    rng = SeedStream(SEED, 3).generator()
    rows, expect = [], []
    for length in (1.0, 0.02):
        for proj, valid in ((1e-13, False), (0.99e-12, False), (1.01e-12, True),
                            (1e-9, True)):
            for side in (0, 2):
                rot = _random_rotation(rng, 3)
                b = length * rot[:, 2]
                window = [0.7 * rot[:, 2] + 0.3 * rot[:, 1], b,
                          -0.4 * rot[:, 2] + 0.5 * rot[:, 0]]
                window[side] = 0.03 * rot[:, 2] + proj * rot[:, side // 2]
                rows.append(window)
                expect.append(valid)
    edges = np.array(rows)
    _, ok = _batch_torsion(edges, False)
    _, ref_ok = _projection_torsion(edges, False)
    assert np.array_equal(ok, expect)
    assert np.array_equal(ref_ok, expect)


def _reference_turning(edges, closed):
    """The turning kernel in its unblocked form: whole-batch norms, np.where
    masks and np.roll."""
    norms = np.linalg.norm(edges, axis=-1)
    ok = np.all(norms > _EDGE_TINY, axis=-1)
    unit = edges / np.where(norms > _EDGE_TINY, norms, 1.0)[..., None]
    if closed:
        dots = np.einsum("cij,cij->ci", unit, np.roll(unit, -1, axis=1))
    else:
        dots = np.einsum("cij,cij->ci", unit[:, :-1], unit[:, 1:])
    return np.arccos(np.clip(dots, -1.0, 1.0)), ok


def _reference_torsion(edges, closed):
    """The torsion kernel in its unblocked form: np.cross, np.roll and a
    norm for each of b, a x b and b x c."""
    if closed:
        b = np.roll(edges, -1, axis=1)
        ab = np.cross(edges, b)
        a, bc = edges, np.roll(ab, -1, axis=1)
    else:
        cross = np.cross(edges[:, :-1], edges[:, 1:])
        a, b, ab, bc = edges[:, :-2], edges[:, 1:-1], cross[:, :-1], cross[:, 1:]
    nb = np.linalg.norm(b, axis=-1)
    ok = np.all(nb > _EDGE_TINY, axis=-1)
    ok &= np.all(np.linalg.norm(ab, axis=-1) > _PROJ_TINY * nb, axis=-1)
    ok &= np.all(np.linalg.norm(bc, axis=-1) > _PROJ_TINY * nb, axis=-1)
    tau = -np.arctan2(nb * np.einsum("cij,cij->ci", a, bc),
                      np.einsum("cij,cij->ci", ab, bc))
    tau[tau == -math.pi] = math.pi
    return tau, ok


@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4096])
def test_blocked_kernels_match_reference_formulas(count):
    # Bit for bit, on sampled edges with defects in the last row block: a
    # zero edge, a neighbor parallel to b, and a last edge parallel to the
    # first, which only the closed (wrapping) windows see.
    n = 24
    last = count - 1
    zero_row = max(last - 1, last // _BLOCK * _BLOCK)
    rows = np.arange(count)
    for space in ("arm2", "arm3"):
        edges = space_edges_batch(SeedStream(SEED, 4).generator(), count,
                                  space, n)
        edges[zero_row, 5] = 0.0
        edges[last, 9] = 0.5 * edges[last, 10]
        edges[last, -1] = 2.0 * edges[last, 0]
        for closed in (True, False):
            angles, ok = _batch_turning(edges, closed)
            ref, ref_ok = _reference_turning(edges, closed)
            assert np.array_equal(angles, ref) and np.array_equal(ok, ref_ok)
            assert np.array_equal(ok, rows != zero_row)
            if space == "arm3":
                tau, ok = _batch_torsion(edges, closed)
                ref, ref_ok = _reference_torsion(edges, closed)
                assert np.array_equal(tau, ref) and np.array_equal(ok, ref_ok)
                assert np.array_equal(ok, (rows != zero_row) & (rows != last))


def test_blocked_kernels_on_short_polygons():
    # a closed window wraps more than once when n is below its width
    edges = SeedStream(SEED, 5).generator().standard_normal((300, 3, 3))
    for n in (1, 2, 3):
        for kernel, reference in ((_batch_turning, _reference_turning),
                                  (_batch_torsion, _reference_torsion)):
            got, ok = kernel(edges[:, :n], True)
            ref, ref_ok = reference(edges[:, :n], True)
            assert np.array_equal(got, ref) and np.array_equal(ok, ref_ok)


@pytest.mark.parametrize("space, n", [("pol2", 200), ("pol3", 100), ("arm3", 100)])
def test_kernels_match_reference_bits_at_workload_shapes(space, n):
    # One full chunk at each benchmark shape, compared byte for byte so that
    # -0 and +0 differ. The last row's edges are all -0.0: each torsion dot
    # product there adds -0 terms, which einsum sums to +0, so its torsions
    # are -atan2(+0, +0) = -0.
    edges = space_edges_batch(SeedStream(SEED, 6).generator(), 4096, space, n)
    edges[-1] = -0.0
    closed = space.startswith("pol")
    pairs = [(_batch_turning, _reference_turning)]
    if space.endswith("3"):
        pairs.append((_batch_torsion, _reference_torsion))
    for kernel, reference in pairs:
        got, ok = kernel(edges, closed)
        ref, ref_ok = reference(edges, closed)
        assert got.tobytes() == ref.tobytes() and np.array_equal(ok, ref_ok)
        assert np.array_equal(ok, np.arange(4096) != 4095)
    if space.endswith("3"):
        assert np.signbit(got[-1]).all() and not got[-1].any()


def test_square_total_curvature():
    assert np.allclose(turning_angles(SQUARE2), math.pi / 2, rtol=0, atol=1e-15)
    assert abs(total_curvature(SQUARE2) - 2 * math.pi) < 1e-12


def test_collinear_chain_curvature_zero():
    p = Polygon(dim=2, closed=False, edges=[[1, 0], [2, 0], [0.5, 0]])
    assert total_curvature(p) == 0.0
    assert turning_angles(p).shape == (2,)


def test_angle_counts_open_vs_closed():
    open3 = Polygon(dim=3, closed=False, edges=np.eye(3) + 0.1)
    assert turning_angles(open3).shape == (2,)
    assert torsion_angles(open3).shape == (1,)
    assert turning_angles(SQUARE3).shape == (4,)
    assert torsion_angles(SQUARE3).shape == (4,)


def test_planar_square_torsion_zero():
    assert np.allclose(torsion_angles(SQUARE3), 0.0, rtol=0, atol=1e-15)
    assert total_torsion(SQUARE3) == 0.0


def test_planar_zigzag_torsion_is_pi():
    # A chain folding back and forth inside a plane crosses each middle
    # edge's axis, giving torsion exactly pi at every interior edge.
    zig = Polygon(dim=3, closed=False,
                  edges=[[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]])
    assert np.allclose(torsion_angles(zig), math.pi, rtol=0, atol=1e-15)


def test_torsion_requires_spatial():
    with pytest.raises(InvalidDimensionError):
        torsion_angles(SQUARE2)
    short = Polygon(dim=3, closed=False, edges=[[1, 0, 0], [0, 1, 0]])
    with pytest.raises(InvalidSizeError):
        torsion_angles(short)


def test_degenerate_polygon_rejected():
    p = Polygon(dim=2, closed=False, edges=[[1, 0], [0, 0], [0, 1]])
    with pytest.raises(DegenerateEdgeError):
        turning_angles(p)
    collinear = Polygon(dim=3, closed=False,
                        edges=[[0, 0, 1], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(DegenerateTorsionError):
        torsion_angles(collinear)


def _random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_rotation_and_scale_invariance():
    rng = SeedStream(SEED, 0).generator()
    for dim, maker in ((2, SQUARE2), (3, None)):
        p = maker or sample_pol(3, 12, rng)
        rot = _random_rotation(rng, dim)
        moved = Polygon(dim=dim, closed=p.closed, edges=2.7 * p.edges @ rot.T)
        assert np.allclose(turning_angles(moved), turning_angles(p),
                           rtol=0, atol=1e-10)
        if dim == 3:
            assert np.allclose(torsion_angles(moved), torsion_angles(p),
                               rtol=0, atol=1e-10)


def test_single_polygon_angles_ignore_the_polygon_size():
    # the cut-offs act relative to the polygon's size: at 1e-14 the raw edges
    # are shorter than _EDGE_TINY, yet no angle is degenerate
    p = sample_pol(3, 20, SeedStream(SEED))
    turning, torsion = turning_angles(p), torsion_angles(p)
    for scale in (2.0 ** -60, 2.0 ** 40, 1e-20, 1e-14, 1e20):
        scaled = Polygon(dim=3, closed=True, edges=scale * p.edges)
        exact = math.frexp(scale)[0] == 0.5
        for got, want in ((turning_angles(scaled), turning),
                          (torsion_angles(scaled), torsion)):
            if exact:  # a power of two scales every coordinate exactly
                assert got.tobytes() == want.tobytes(), scale
            else:
                assert np.allclose(got, want, rtol=0, atol=1e-14), scale
        assert total_curvature(scaled) == pytest.approx(total_curvature(p), abs=1e-12)
        assert total_torsion(scaled) == pytest.approx(total_torsion(p), abs=1e-12)


def test_kernels_exclude_nothing_at_ten_thousand_edges():
    # sampled edges are about 2/n = 2e-4 long, far above the absolute cut-offs
    _, excluded = functional_samples("pol3", 10_000, 64,
                                     ["total_curvature", "total_torsion"], SEED)
    assert excluded == 0


def test_closed_curvature_bounds():
    # Fenchel: total curvature of a closed polygon is at least 2*pi; each of
    # the n turning angles is at most pi.
    rng = SeedStream(SEED, 1).generator()
    for dim in (2, 3):
        for _ in range(100):
            kappa = total_curvature(sample_pol(dim, 20, rng))
            assert 2 * math.pi - 1e-9 <= kappa <= 20 * math.pi


def test_arm_turning_total_mean():
    # Open-chain turning angles are iid uniform on [0, pi]: the total over
    # n-1 angles has mean (n-1)*pi/2.
    vals, _ = functional_samples("arm2", 100, 20_000, ["total_curvature"],
                                 SEED, stream_id=100)
    kappa = vals["total_curvature"]
    se = kappa.std(ddof=1) / math.sqrt(kappa.size)
    assert abs(kappa.mean() - 99 * math.pi / 2) < 4 * se


def test_arm_torsion_total_moments():
    # Open-chain torsions are iid uniform on (-pi, pi]: total torsion over
    # n-2 angles has mean 0 and variance (n-2)*pi^2/3.
    vals, _ = functional_samples("arm3", 50, 20_000, ["total_torsion"],
                                 SEED, stream_id=101)
    tau = vals["total_torsion"]
    se = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(tau.mean()) < 4 * se
    expected_var = 48 * math.pi**2 / 3
    assert abs(tau.var(ddof=1) - expected_var) / expected_var < 0.05


def test_arm_angle_laws_uniform():
    # chi-square uniformity for theta_1 on [0, pi] and tau_1 on (-pi, pi].
    theta, _ = functional_samples("arm2", 10, 100_000, ["theta1"], SEED,
                                  stream_id=102)
    counts, _ = np.histogram(theta["theta1"], bins=36, range=(0, math.pi))
    expected = theta["theta1"].size / 36
    assert float(((counts - expected) ** 2 / expected).sum()) \
        < stats.chi2.ppf(0.999, 35)
    tau, _ = functional_samples("arm3", 10, 100_000, ["tau1"], SEED,
                                stream_id=103)
    counts, _ = np.histogram(tau["tau1"], bins=36, range=(-math.pi, math.pi))
    expected = tau["tau1"].size / 36
    assert float(((counts - expected) ** 2 / expected).sum()) \
        < stats.chi2.ppf(0.999, 35)


def test_sliding_window_edge_length():
    f = LocalFunctional(k=1, bound_M=2.0,
                        eval=lambda w: np.linalg.norm(w[:, 0], axis=-1),
                        name="edge_length")
    assert sliding_window_apply(SQUARE2, f) == [1.0, 1.0, 1.0, 1.0]
    open_chain = Polygon(dim=2, closed=False, edges=[[3, 0], [0, 4]])
    assert sliding_window_apply(open_chain, f) == [3.0, 4.0]


def test_sliding_window_full_width_open():
    chain = Polygon(dim=2, closed=False, edges=[[1, 0], [0, 1], [2, 0]])
    f = LocalFunctional(k=3, bound_M=6.0,
                        eval=lambda w: np.abs(w).sum(axis=(1, 2)))
    assert sliding_window_apply(chain, f) == [4.0]


def _window_turning(windows):
    angles, ok = _batch_turning(windows, closed=False)
    return np.where(ok, angles[:, 0], np.nan)


def test_sliding_window_turning_matches_total():
    f = LocalFunctional(k=2, bound_M=math.pi, eval=_window_turning,
                        name="window_turning")
    vals = sliding_window_apply(SQUARE2, f)
    assert len(vals) == 4
    assert np.allclose(vals, math.pi / 2, rtol=0, atol=1e-15)
    assert abs(sum(vals) - total_curvature(SQUARE2)) < 1e-12


def test_sliding_window_cyclic_wrap():
    chain = Polygon(dim=2, closed=True,
                    edges=[[1, 0], [0, 1], [-1, -1]])
    f = LocalFunctional(k=2, bound_M=10.0,
                        eval=lambda w: w[:, 0, 0] * 10 + w[:, 1, 0])
    # windows: (e1,e2), (e2,e3), (e3,e1) with wraparound
    assert sliding_window_apply(chain, f) == [10.0, -1.0, -9.0]


def _per_window_reference(p, k, fn):
    # the windows one by one: cyclic on a closed polygon
    edges = p.edges
    if p.closed:
        ext = np.concatenate([edges, edges[: k - 1]], axis=0)
        return [fn(ext[i:i + k]) for i in range(p.n)]
    return [fn(edges[i:i + k]) for i in range(p.n - k + 1)]


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_sliding_window_matches_per_window_reference(closed, k):
    edges = sample_pol(3, 7, SeedStream(SEED, 21)).edges
    p = Polygon(dim=3, closed=closed, edges=edges)
    # the first and last edge of each window, and the turning angle between
    # its first two edges, in the same arithmetic one window at a time
    ends = LocalFunctional(k=k, bound_M=4.0,
                           eval=lambda w: 3 * w[:, 0, 2] - w[:, -1, 1])
    assert sliding_window_apply(p, ends) == _per_window_reference(
        p, k, lambda w: float(3 * w[0, 2] - w[-1, 1]))
    if k >= 2:
        turning = LocalFunctional(k=k, bound_M=math.pi, eval=_window_turning)
        assert sliding_window_apply(p, turning) == _per_window_reference(
            p, k, lambda w: turning_angle(w[0], w[1]))


def test_sliding_window_validation():
    f = LocalFunctional(k=5, bound_M=1.0, eval=lambda w: np.zeros(len(w)))
    with pytest.raises(InvalidSizeError):
        sliding_window_apply(SQUARE2, f)
    # the width check of functional_samples: a whole number of edges
    for k in (2.0, True, 0):
        f = LocalFunctional(k=k, bound_M=1.0, eval=lambda w: np.zeros(len(w)),
                            name="w")
        with pytest.raises(InvalidSizeError, match="functional 'w' must satisfy 1 <= k <= n"):
            sliding_window_apply(SQUARE2, f)
    # one value per window, and NaN for a degenerate one
    f = LocalFunctional(k=2, bound_M=1.0, eval=lambda w: np.zeros((len(w), 2)),
                        name="wide")
    with pytest.raises(DomainError, match="'wide' returned shape"):
        sliding_window_apply(SQUARE2, f)
    straight = Polygon(dim=2, closed=False, edges=[[1, 0], [1, 0], [1e-16, 0]])
    f = LocalFunctional(k=2, bound_M=math.pi, eval=_window_turning,
                        name="window_turning")
    with pytest.raises(DegenerateEdgeError, match="'window_turning' is NaN"):
        sliding_window_apply(straight, f)
