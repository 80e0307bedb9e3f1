"""Correctness oracle: RP-DBSCAN against exact DBSCAN.

**Exact mode (rho = 0).**  Passing ``rho=0`` to :class:`RPDBSCAN`
selects :data:`~repro.core.EXACT_RHO` (``2**-16``), the finest sub-cell
split the dictionary's uint16 coordinate layout admits.  At that
granularity the fully-contained sub-cell test can misjudge a
neighborhood only for points within ``eps * 2**-16`` of the eps sphere —
far below the spacing of any dataset in general position — so RP-DBSCAN
must reproduce exact DBSCAN up to DBSCAN's *own* well-known ambiguity:

* core points and their partition into clusters are unique and must
  match exactly (Rand index 1.0 restricted to core points, cluster ids
  in bijection);
* a border point may be claimed by any cluster owning a core point
  within eps of it — classic DBSCAN resolves the tie by visit order,
  RP-DBSCAN by cell structure, and both answers are valid;
* noise (no core point within eps) must match exactly.

:func:`_oracle_check` pins exactly that contract; on datasets without
contested border points it degenerates to whole-labeling Rand index 1.0,
which the individual tests additionally assert where it holds.

The contract excludes datasets with inter-point distances *exactly*
equal to eps (e.g. a unit lattice queried with ``eps=1.0``): such pairs
lie on the decision sphere itself, where no finite sub-cell refinement
can decide containment — choose eps off the lattice spectrum instead.

**Approximate mode (rho > 0).**  The paper's Lemma 2 bounds the error:
any point RP-DBSCAN treats differently from exact DBSCAN lies within
``eps*(1+rho)`` of the deciding core point, so only the eps-boundary of
clusters can flip.  Table 4 reports Rand indices >= 0.99 for
``rho <= 0.01``; the suite tolerates (and documents) exactly that bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ExactDBSCAN
from repro.core import EXACT_RHO, RPDBSCAN
from repro.data.generators import moons
from repro.metrics import rand_index


def _oracle_check(points: np.ndarray, eps: float, min_pts: int) -> float:
    """Assert the exact-mode contract; return the whole-labeling RI."""
    points = np.asarray(points, dtype=np.float64)
    exact = ExactDBSCAN(eps, min_pts).fit(points)
    approx = RPDBSCAN(eps, min_pts, num_partitions=4, rho=0, seed=0).fit(points)

    core = np.asarray(approx.core_mask, dtype=bool)
    np.testing.assert_array_equal(core, np.asarray(exact.core_mask, dtype=bool))

    # The core partition is unique: exact agreement, ids in bijection.
    assert rand_index(exact.labels[core], approx.labels[core]) == 1.0

    # Border points: claimed by some cluster owning a reaching core
    # point; noise exactly when no core point is within eps.
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    within = d2 <= eps * eps
    for i in np.flatnonzero(~core):
        owners = {int(label) for label in approx.labels[within[i] & core]}
        if owners:
            assert int(approx.labels[i]) in owners
            assert int(exact.labels[i]) != -1
        else:
            assert int(approx.labels[i]) == -1
            assert int(exact.labels[i]) == -1

    return rand_index(exact.labels, approx.labels)


class TestExactModeOracle:
    def test_rho_zero_selects_exact_mode(self):
        model = RPDBSCAN(eps=0.3, min_pts=10, rho=0)
        assert model.rho == EXACT_RHO

    def test_two_blobs(self, two_blobs):
        assert _oracle_check(two_blobs, eps=0.3, min_pts=10) == 1.0

    def test_moons(self):
        assert _oracle_check(moons(500, noise=0.05, seed=9), eps=0.15, min_pts=8) == 1.0

    def test_blobs_with_noise(self, blobs_with_noise):
        assert _oracle_check(blobs_with_noise, eps=0.25, min_pts=12) == 1.0

    def test_three_d_blobs(self, three_d_blobs):
        assert _oracle_check(three_d_blobs, eps=0.5, min_pts=10) == 1.0

    def test_uniform_square(self, uniform_square):
        # Near the critical density, contested border points exist (a
        # border point between two clusters' cores); the structural
        # contract still holds and the whole-labeling RI stays ~1.
        assert _oracle_check(uniform_square, eps=0.06, min_pts=6) >= 0.995


class TestDegenerateDatasets:
    """Pathological geometry where approximate region tests usually slip."""

    def test_exact_duplicates(self):
        # 10 distinct sites, each repeated 30 times: every neighborhood
        # count is a multiple of 30, stacked on a single sub-cell.
        rng = np.random.default_rng(0)
        sites = rng.uniform(0.0, 5.0, (10, 2))
        points = np.repeat(sites, 30, axis=0)
        assert _oracle_check(points, eps=0.8, min_pts=15) == 1.0

    def test_collinear_points(self):
        line = np.stack([np.linspace(0.0, 10.0, 300), np.zeros(300)], axis=1)
        assert _oracle_check(line, eps=0.1, min_pts=4) == 1.0

    def test_single_point(self):
        assert _oracle_check(np.array([[1.0, 2.0]]), eps=0.5, min_pts=1) == 1.0

    def test_two_far_points(self):
        assert _oracle_check(np.array([[0.0, 0.0], [100.0, 100.0]]), eps=0.5, min_pts=2) == 1.0

    def test_tight_grid(self):
        # A regular lattice.  eps=1.2 sits strictly between the lattice
        # distances 1 and sqrt(2), off the decision sphere (see module
        # docstring: eps exactly *on* a lattice distance is undecidable
        # for any finite sub-cell split, and excluded from the contract).
        xs, ys = np.meshgrid(np.arange(15, dtype=float), np.arange(15, dtype=float))
        points = np.stack([xs.ravel(), ys.ravel()], axis=1)
        assert _oracle_check(points, eps=1.2, min_pts=5) == 1.0


def _large_offset_fixture() -> np.ndarray:
    """One cluster around the origin with three border points, each
    0.27 from a core point and farther than eps from every other."""
    rng = np.random.default_rng(1)
    points = np.concatenate(
        [
            rng.uniform(-0.1, 0.1, (30, 2)),
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
            [[1.25, 0.1], [0.1, 1.25], [-1.25, -0.1]],
        ]
    )
    # Multiples of 1/1024 stay exact after a translation by 2**30.
    return np.round(points * 1024) / 1024


def _brute_force_labels(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Exact DBSCAN from coordinate differences; border points join
    their nearest core point's cluster, clusters numbered in order of
    first appearance."""
    diff = points[:, None, :] - points[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    within = d2 <= eps * eps
    core = within.sum(axis=1) >= min_pts
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    cluster = 0
    for seed in np.flatnonzero(core):
        if labels[seed] >= 0:
            continue
        labels[seed] = cluster
        frontier = [seed]
        while frontier:
            reach = np.flatnonzero(within[frontier].any(axis=0) & core)
            frontier = reach[labels[reach] < 0].tolist()
            labels[frontier] = cluster
        cluster += 1
    for i in np.flatnonzero(~core):
        near = np.flatnonzero(within[i] & core)
        if near.size:
            labels[i] = labels[near[np.argmin(d2[i, near])]]
    return labels


class TestLargeCoordinates:
    """Within-eps tests subtract coordinates before squaring: the
    ``|a|^2 + |b|^2 - 2ab`` expansion cancels far from the origin and
    turned these border points into noise."""

    @pytest.mark.parametrize("offset", [2.0**20, 2.0**26, 2.0**30])
    def test_translation_keeps_labels(self, offset):
        points = _large_offset_fixture()
        moved = points + offset
        reference = RPDBSCAN(1.0, 5, num_partitions=4, rho=0).fit(points).labels
        oracle = _brute_force_labels(moved, 1.0, 5)
        np.testing.assert_array_equal(oracle, reference)
        assert (reference >= 0).all()
        rp = RPDBSCAN(1.0, 5, num_partitions=4, rho=0).fit(moved)
        np.testing.assert_array_equal(rp.labels, reference)
        np.testing.assert_array_equal(ExactDBSCAN(1.0, 5).fit(moved).labels, reference)


class TestApproximateModeBound:
    """rho > 0 is allowed to flip eps-boundary points only (Lemma 2)."""

    @pytest.mark.parametrize("rho", [0.01, 0.001])
    def test_rand_index_within_table4_bound(self, two_blobs, rho):
        exact = ExactDBSCAN(0.3, 10).fit(two_blobs)
        approx = RPDBSCAN(0.3, 10, num_partitions=4, rho=rho, seed=0).fit(two_blobs)
        assert rand_index(exact.labels, approx.labels) >= 0.99

    def test_smaller_rho_is_no_less_accurate(self, blobs_with_noise):
        exact = ExactDBSCAN(0.25, 12).fit(blobs_with_noise)
        scores = [
            rand_index(
                exact.labels,
                RPDBSCAN(0.25, 12, num_partitions=4, rho=rho, seed=0)
                .fit(blobs_with_noise)
                .labels,
            )
            for rho in (0.1, 0.01, 0)
        ]
        assert scores == sorted(scores)
        assert scores[-1] == 1.0
