import sys
import threading
from functools import partial

import numpy as np
import pytest

import hrg.mc as mcmod
from hrg.covariance import c_r_value
from hrg.errors import NotPSDError, SampleCountError, VolumeError
from hrg.geometry import make_params
from hrg.mc import (
    BATCH_SIZE,
    FieldEnsemble,
    _cholesky_factor,
    _exact_box_covariance,
    exact_pairing,
    sample_hierarchical_field,
    validate,
)
import oracles
from oracles import reference_validate


@pytest.fixture(scope="module")
def p21():
    return make_params(2, 1, 0.1)


def _zero_batch(ens, idx):
    """Batch idx of an all-zero field, whose every class mean is exactly 0."""
    return np.zeros((min(BATCH_SIZE, ens.n_samples - idx * BATCH_SIZE), ens.n_boxes))


def _empirical_matrix(ens):
    """Sample covariance of the boxes over the ensemble's reference batches."""
    return np.cov(np.concatenate(list(oracles.reference_batches(ens))), rowvar=False)


def test_volume_and_sample_guards(p21):
    with pytest.raises(VolumeError):
        sample_hierarchical_field(p21, -3, 2, 100, 0)  # 2^15 boxes over budget
    with pytest.raises(VolumeError):
        sample_hierarchical_field(p21, 1, 2, 100, 0)  # r must be <= 0
    with pytest.raises(SampleCountError):
        sample_hierarchical_field(p21, -1, 0, 0, 0)
    ens = sample_hierarchical_field(p21, -1, 0, 500, 0)
    with pytest.raises(SampleCountError):
        validate(ens)


def test_single_box_variance(p21):
    ens = sample_hierarchical_field(p21, 0, 0, 100_000, 3)
    emp, _ = validate(ens)
    c00 = c_r_value(p21, 0, 0)
    se = c00 * np.sqrt(2.0 / ens.n_samples)
    assert abs(emp.class_means[0] - c00) <= 3 * se
    assert emp.max_z_score <= 4.0


def test_box_means_centered(p21):
    ens = sample_hierarchical_field(p21, -1, 0, 50_000, 5)
    x = np.concatenate(list(oracles.reference_batches(ens)))
    se = np.sqrt(c_r_value(p21, 0, 0) / ens.n_samples)
    assert np.max(np.abs(x.mean(axis=0))) <= 4 * se


def test_adjacent_box_covariance(p21):
    ens = sample_hierarchical_field(p21, -1, 0, 50_000, 7)
    emp, _ = validate(ens)
    assert emp.class_exact[1] == pytest.approx(c_r_value(p21, 0, 1), rel=1e-14)
    assert abs(emp.class_means[1] - emp.class_exact[1]) <= 3 * emp.class_se[1]
    # off-diagonal matrix entries agree with the pooled class mean
    off = _empirical_matrix(ens)[~np.eye(ens.n_boxes, dtype=bool)]
    assert off.mean() == pytest.approx(emp.class_means[1], abs=5e-3)


def test_empirical_matrix_matches_exact(p21):
    ens = sample_hierarchical_field(p21, -1, 1, 60_000, 11)
    emp, _ = validate(ens)
    matrix = _empirical_matrix(ens)
    exact = _exact_box_covariance(p21, ens.levels)
    assert matrix.shape == exact.shape
    assert np.max(np.abs(matrix - exact)) < 0.1
    assert emp.max_z_score <= 5.0


def test_zero_field_synthetic(p21, monkeypatch):
    ens = sample_hierarchical_field(p21, -1, 0, 2000, 0)
    monkeypatch.setattr(FieldEnsemble, "batch", _zero_batch)
    emp, _ = validate(ens)
    assert np.all(emp.class_means == 0.0)
    assert np.isinf(emp.max_z_score)  # zero spread against a nonzero target


def test_hierarchical_vs_cholesky(p21):
    a, _ = validate(sample_hierarchical_field(p21, -1, 1, 40_000, 13))
    b, _ = validate(sample_hierarchical_field(p21, -1, 1, 40_000, 13, method="cholesky"))
    comb = np.sqrt(a.class_se**2 + b.class_se**2)
    assert np.all(np.abs(a.class_means - b.class_means) <= 5 * comb)


def test_determinism_and_seed_sensitivity(p21):
    e1, _ = validate(sample_hierarchical_field(p21, -1, 0, 20_000, 17))
    e2, _ = validate(sample_hierarchical_field(p21, -1, 0, 20_000, 17))
    assert np.array_equal(e1.class_means, e2.class_means)
    assert np.array_equal(e1.class_se, e2.class_se)
    e3, _ = validate(sample_hierarchical_field(p21, -1, 0, 20_000, 18))
    assert not np.array_equal(e1.class_means, e3.class_means)
    comb = np.sqrt(e1.class_se**2 + e3.class_se**2)
    assert np.all(np.abs(e1.class_means - e3.class_means) <= 5 * comb)


def test_pairing_estimate(p21):
    ens = sample_hierarchical_field(p21, -1, 1, 60_000, 19)
    _, est = validate(ens)
    assert abs(est.mean - est.exact) <= 3 * est.stderr
    # reference: the squared weighted sum over the unit box, the leading
    # p^(-3r) sub-ball in rescaled units, in its own pass over the batches
    pf = float(p21.p)
    n_sub = int(pf ** (-3 * ens.r))
    weight = pf ** ((3 - p21.phi_dim) * ens.r)
    total = total2 = 0.0
    for batch in ens.batches():
        t = (weight * batch[:, :n_sub].sum(axis=1)) ** 2
        total += t.sum()
        total2 += (t**2).sum()
    mean = total / ens.n_samples
    stderr = float(np.sqrt(max(total2 / ens.n_samples - mean**2, 0.0) / ens.n_samples))
    assert est.mean == mean and est.stderr == stderr


def test_exact_pairing_in_r(p21):
    # each added ultraviolet layer pairs to zero against the unit box (its
    # momentum support misses the indicator's transform), so the pairing is
    # non-decreasing with zero increments and already equals the
    # cut-off-free value
    vals = [exact_pairing(p21, r) for r in (0, -1, -2, -3)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    from hrg.covariance import free_pairing_c_inf

    limit = free_pairing_c_inf(p21)
    for v in vals:
        assert v == pytest.approx(limit, rel=1e-12)
    assert limit == pytest.approx(c_r_value(p21, 0, 0), rel=1e-12)

    def pairing_from_series(r):
        # independent evaluation: unit-box pairing of C_r by shell sums in
        # unrescaled units
        total = 0.0
        pf = float(p21.p)
        for k in range(0, -60, -1):
            vol = pf ** (3 * k) * (1 - pf**-3)
            total += vol * c_r_value(p21, r, k)
        return total

    for r in (0, -1, -2):
        assert exact_pairing(p21, r) == pytest.approx(pairing_from_series(r), rel=1e-12)


def test_pairing_telescoping_difference(p21):
    # adding one more ultraviolet scale contributes the single-scale term
    diff = exact_pairing(p21, -3) - exact_pairing(p21, -2)
    pf = float(p21.p)

    def single_scale(r):
        # Gamma-type increment between cut-offs r and r+1, paired with the box
        total = 0.0
        for k in range(0, -80, -1):
            vol = pf ** (3 * k) * (1 - pf**-3)
            total += vol * (c_r_value(p21, r, k) - c_r_value(p21, r + 1, k))
        return total

    assert diff == pytest.approx(single_scale(-3), rel=1e-10)


def test_cholesky_rejects_indefinite(p21):
    class Bad:
        pass

    with pytest.raises(NotPSDError):
        import hrg.mc as mcmod

        # feed an indefinite matrix through the factor helper
        orig = mcmod._exact_box_covariance
        try:
            mcmod._exact_box_covariance = lambda p, lv: np.array([[1.0, 2.0], [2.0, 1.0]])
            _cholesky_factor(p21, 1)
        finally:
            mcmod._exact_box_covariance = orig


# every level count within the 4096-box volume budget
VOLUMES = [(2, levels) for levels in range(5)] + [(3, levels) for levels in range(3)]
# one batch; two with a short last one of 65 rows; three
SAMPLE_COUNTS = (1000, BATCH_SIZE + 65, 3 * BATCH_SIZE - 100)


def _assert_same(got, want, rtol=0.0):
    """Every field of (EmpiricalCovariance, PairingEstimate) equal, or with
    rtol > 0 within rtol relative (max_z_score within rtol absolute)."""
    emp, pairing = got
    ref_emp, ref_pairing = want
    fields = [(getattr(emp, name), getattr(ref_emp, name)) for name in ("class_means", "class_exact", "class_se")]
    fields += [(getattr(pairing, name), getattr(ref_pairing, name)) for name in ("mean", "stderr", "exact")]
    for a, b in fields:
        if rtol:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)
        else:
            assert np.array_equal(a, b)
    if rtol:
        assert abs(emp.max_z_score - ref_emp.max_z_score) <= rtol
    else:
        assert np.array_equal(emp.max_z_score, ref_emp.max_z_score)


def _validate_on(ens, workers, monkeypatch):
    """validate with a pool of `workers` threads; at more workers than
    cores, with the interpreter switching threads every microsecond."""
    monkeypatch.setattr(mcmod, "_usable_cores", lambda: workers)
    old = sys.getswitchinterval()
    if workers > 2:
        sys.setswitchinterval(1e-6)
    try:
        return validate(ens)
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("method", ["hierarchical", "cholesky", "zero"])
@pytest.mark.parametrize("p,levels", VOLUMES)
def test_validate_matches_serial_reference(p, levels, method, monkeypatch):
    # Any worker count gives the same bits.  The hierarchical batches do
    # the serial reference's arithmetic, so they match it bit for bit.  The
    # Cholesky product runs one row chunk at a time, and BLAS may block a
    # chunk's product unlike the batch-wide one (at 729 boxes it moves
    # entries of a batch by an ulp), so that branch is held to the
    # reference within 1e-13, a few hundred ulps.  "zero" feeds all-zero
    # batches to both routes, so every z-score meets zero spread.
    if method == "zero":
        monkeypatch.setattr(FieldEnsemble, "batch", _zero_batch)
        monkeypatch.setattr(oracles, "reference_batches", lambda e: map(partial(_zero_batch, e), range(e.n_batches)))
        method = "hierarchical"
    params = make_params(p, 1, 0.1)
    r = -((levels + 1) // 2)
    counts = SAMPLE_COUNTS
    if p ** (3 * levels) == 4096:
        # the dearest volume: one batch for Cholesky, two for the others
        counts = SAMPLE_COUNTS[:1] if method == "cholesky" else SAMPLE_COUNTS[1:2]
    rtol = 1e-13 if method == "cholesky" else 0.0
    for n_samples in counts:
        ens = sample_hierarchical_field(params, r, levels + r, n_samples, seed=23, method=method)
        serial = _validate_on(ens, 1, monkeypatch)
        _assert_same(serial, reference_validate(ens), rtol)
        for workers in (2, 5) if ens.n_batches > 1 else ():
            _assert_same(_validate_on(ens, workers, monkeypatch), serial)
    # batches keep their output, the short last batch included
    for got, ref in zip(ens.batches(), oracles.reference_batches(ens), strict=True):
        if rtol:
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=1e-13)
        else:
            assert np.array_equal(got, ref)


def test_batch_index_guard(p21):
    ens = sample_hierarchical_field(p21, -1, 0, BATCH_SIZE + 1, 0)
    assert ens.n_batches == 2 and ens.batch(1).shape == (1, 8)
    for idx in (-1, 2):
        with pytest.raises(IndexError):
            ens.batch(idx)


def test_validate_leaves_no_thread_running(p21, monkeypatch):
    ens = sample_hierarchical_field(p21, -1, 1, 3 * BATCH_SIZE, 29)
    before = threading.active_count()
    _validate_on(ens, 5, monkeypatch)
    assert threading.active_count() == before


def test_worker_exception_reaches_caller(p21, monkeypatch):
    ens = sample_hierarchical_field(p21, -1, 1, 5 * BATCH_SIZE, 31)
    draw = FieldEnsemble.batch

    def failing_batch(self, idx):
        if idx == 1:
            raise RuntimeError("batch 1 failed")
        return draw(self, idx)

    monkeypatch.setattr(FieldEnsemble, "batch", failing_batch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="batch 1 failed"):
        _validate_on(ens, 2, monkeypatch)
    assert threading.active_count() == before


def test_cholesky_factor_computed_once(p21, monkeypatch):
    calls = []
    factor = mcmod._cholesky_factor

    def counted(params, levels):
        calls.append(levels)
        return factor(params, levels)

    monkeypatch.setattr(mcmod, "_cholesky_factor", counted)
    ens = sample_hierarchical_field(p21, -1, 1, 3 * BATCH_SIZE, 37, method="cholesky")
    _validate_on(ens, 5, monkeypatch)
    assert calls == [2]
