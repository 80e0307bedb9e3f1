"""The shared-memory broadcast channel, end to end.

Covers the three layers of the ``shm`` channel:

* :mod:`repro.engine.shm` in isolation — export/import round trips,
  persistent-id hoisting through nested containers, zero-copy read-only
  views, segment naming;
* the engine integration — channel selection (``auto``/``pickle``/
  ``shm``), byte accounting per channel, cross-channel label identity,
  and segment lifecycle (unlinked on close and on re-ship; re-attached,
  not re-created, on pool re-spawn after a chaos-injected worker crash);
* the sharded (budgeted partial-broadcast) payloads — per-shard segment
  round trips, all-or-nothing creation, and label identity under a
  worker-side residency budget;
* leak hygiene — after every scenario, including install failures
  partway through segment creation, no ``rpdbscan_*`` segment this
  process created remains in ``/dev/shm``.
"""

import threading

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.defragmentation import defragment
from repro.core.dictionary import FlatCellDictionary
from repro.core.rp_dbscan import RPDBSCAN
from repro.core.sharding import ShardedFlatDictionary
from repro.engine import Engine, FaultPolicy
from repro.engine.faults import FAULT_RESPAWNS
from repro.engine.shm import (
    SHM_NAME_PREFIX,
    _suppressed_tracker_registration,
    attach_segment,
    create_segment,
    create_sharded_segments,
    destroy_segment,
    export_broadcast,
    export_broadcast_parts,
    import_broadcast,
    import_broadcast_parts,
)

from ..shm_guard import own_segments
from .test_faults import CHAOS_INJECTOR, _crash_once_injector


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must clean up its segments."""
    assert own_segments() == []
    yield
    assert own_segments() == []


@pytest.fixture(scope="module")
def flat():
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 4, (2000, 2))
    return FlatCellDictionary.from_points(
        points, CellGeometry(eps=0.5, dim=2, rho=0.05)
    )


def lookup_cell(row, flat):
    """Worker body: exercise the attached dictionary's query surface."""
    cell_id = flat.cell_at(row)
    return (
        cell_id,
        int(flat.cell_counts[row]),
        float(flat.sub_cell_centers(cell_id).sum()),
    )


def lookup_nested(row, broadcast):
    flat = broadcast["context"][1]
    return lookup_cell(row, flat)


def add_broadcast(x, b):
    return x + b


def lookup_partial(row, broadcast):
    """Worker body: compare the full and partial dictionary views."""
    full, partial = broadcast["context"]
    rows = np.array([row], dtype=np.int64)
    want = full.gather_subcells(rows)
    got = partial.gather_subcells(rows)
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def _budgeted_sharded(flat, budget=8192):
    return ShardedFlatDictionary.from_defragmented(
        defragment(flat, capacity=200), budget_bytes=budget
    )


class TestExportImport:
    def test_plain_value_exports_to_ordinary_pickle(self):
        import pickle

        blob, flats = export_broadcast({"a": [1, 2, 3]})
        assert flats == []
        assert pickle.loads(blob) == {"a": [1, 2, 3]}

    def test_flat_is_hoisted_and_deduplicated(self, flat):
        value = {"context": ("tag", flat), "again": flat}
        blob, flats = export_broadcast(value)
        assert flats == [flat]
        assert len(blob) < 1000  # the arrays stayed out of the stream

    def test_round_trip_through_segment(self, flat):
        value = {"context": ("tag", flat)}
        blob, flats = export_broadcast(value)
        handle, segment = create_segment(flats)
        try:
            worker_side = attach_segment(handle)
            try:
                rebuilt = import_broadcast(blob, handle, worker_side)
                out = rebuilt["context"][1]
                assert out is not flat
                assert np.array_equal(out.cell_ids, flat.cell_ids)
                assert np.array_equal(out.sub_centers, flat.sub_centers)
                assert np.array_equal(out.sub_coords, flat.sub_coords)
                # Zero-copy: the rebuilt arrays alias the segment buffer.
                assert not out.cell_ids.flags.owndata
                with pytest.raises(ValueError):
                    out.cell_ids[0, 0] = 99
                # The rebuilt dictionary answers queries identically.
                some = flat.cell_at(0)
                assert out.row_of(some) == 0
                assert np.array_equal(out.densities(some), flat.densities(some))
            finally:
                worker_side.close()
        finally:
            destroy_segment(segment)

    def test_segment_names_carry_prefix(self, flat):
        _, flats = export_broadcast(flat)
        handle, segment = create_segment(flats)
        try:
            assert handle.name.startswith(SHM_NAME_PREFIX)
            assert own_segments() == [f"/dev/shm/{handle.name}"]
        finally:
            destroy_segment(segment)


class TestEngineChannels:
    def test_channel_validation(self):
        with pytest.raises(ValueError, match="broadcast channel"):
            Engine("process", broadcast_channel="carrier-pigeon")

    def test_shm_ships_descriptor_not_arrays(self, flat):
        with Engine("process", num_workers=2, broadcast_channel="shm") as engine:
            out = engine.map_tasks(
                lookup_cell, list(range(4)), broadcast=flat, phase="q"
            )
            assert [row[0] for row in out] == [flat.cell_at(r) for r in range(4)]
            shipped = engine.counters.broadcast_bytes
            assert shipped["shm"] < 2000
            assert shipped["shm_segment"] >= flat.cell_ids.nbytes
            assert "pickle" not in shipped
            # The segment is live while the pool can still map tasks...
            assert len(own_segments()) == 1
        # ...and unlinked by close().
        assert own_segments() == []

    def test_pickle_channel_counts_full_payload(self, flat):
        with Engine("process", num_workers=2, broadcast_channel="pickle") as engine:
            engine.map_tasks(lookup_cell, list(range(4)), broadcast=flat, phase="q")
            shipped = engine.counters.broadcast_bytes
            assert "shm" not in shipped
            # The whole columnar payload went down the pipe as pickle.
            assert shipped["pickle"] >= flat.sub_centers.nbytes

    def test_auto_picks_shm_for_flat_payloads(self, flat):
        with Engine("process", num_workers=2) as engine:
            engine.map_tasks(
                lookup_nested,
                list(range(4)),
                broadcast={"context": ("tag", flat)},
                phase="q",
            )
            assert "shm" in engine.counters.broadcast_bytes

    def test_auto_degrades_to_pickle_without_flats(self):
        with Engine("process", num_workers=2) as engine:
            out = engine.map_tasks(add_broadcast, [1, 2], broadcast=10, phase="q")
            assert out == [11, 12]
            assert list(engine.counters.broadcast_bytes) == ["pickle"]

    def test_forced_shm_degrades_to_pickle_without_flats(self):
        with Engine("process", num_workers=2, broadcast_channel="shm") as engine:
            out = engine.map_tasks(add_broadcast, [1, 2], broadcast=10, phase="q")
            assert out == [11, 12]
            assert list(engine.counters.broadcast_bytes) == ["pickle"]

    def test_reship_replaces_segment(self, flat):
        other = FlatCellDictionary.from_points(
            np.random.default_rng(9).uniform(0, 2, (500, 2)), flat.geometry
        )
        with Engine("process", num_workers=2, broadcast_channel="shm") as engine:
            engine.map_tasks(lookup_cell, list(range(4)), broadcast=flat, phase="q")
            first = own_segments()
            engine.map_tasks(lookup_cell, list(range(4)), broadcast=other, phase="q")
            second = own_segments()
            # One live segment at a time: the re-ship unlinked epoch 1.
            assert len(first) == 1 and len(second) == 1
            assert first != second
            assert engine.broadcast_ships == 2


class TestLabelIdentityAcrossChannels:
    def test_labels_bit_identical(self, blobs_with_noise):
        def run(mode, channel):
            with Engine(mode, num_workers=2, broadcast_channel=channel) as engine:
                model = RPDBSCAN(
                    eps=0.3, min_pts=10, num_partitions=6, seed=0, engine=engine
                )
                return model.fit(blobs_with_noise)

        serial = run("serial", "auto")
        for channel in ("pickle", "shm", "auto"):
            result = run("process", channel)
            np.testing.assert_array_equal(result.labels, serial.labels)
            np.testing.assert_array_equal(result.core_mask, serial.core_mask)
        assert own_segments() == []


class TestChaosSegmentHygiene:
    def test_crash_respawn_reships_reusing_segments(self, flat):
        inj = _crash_once_injector("q", 6)
        policy = FaultPolicy(
            max_retries=2, backoff_base_s=0.001, speculative=False, injector=inj
        )
        with Engine(
            "process", num_workers=2, fault_policy=policy, broadcast_channel="shm"
        ) as engine:
            out = engine.map_tasks(
                lookup_cell, list(range(6)), broadcast=flat, phase="q"
            )
            assert [row[0] for row in out] == [flat.cell_at(r) for r in range(6)]
            assert engine.counters.fault_event_count(FAULT_RESPAWNS) == 1
            assert engine.pools_created == 2
            # The respawned pool re-shipped under a fresh epoch, but the
            # segments were kept across the respawn: the replacement
            # workers just re-attach the existing ones (the driver never
            # re-packs gigabytes because a worker died).
            assert engine.broadcast_ships == 2
            assert engine.broadcast_epoch == 2
            assert engine.counters.broadcast_bytes["shm"] > 0
            assert len(own_segments()) == 1
        assert own_segments() == []


class TestTrackerPatch:
    """The resource-tracker suppression patch (attach-only fallback)."""

    def test_reentrant_nesting_restores_once(self):
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        with _suppressed_tracker_registration():
            patched = resource_tracker.register
            assert patched is not original
            with _suppressed_tracker_registration():
                # Re-entry keeps the installed patch instead of stacking
                # a second wrapper around it.
                assert resource_tracker.register is patched
            # The inner exit must not restore early.
            assert resource_tracker.register is patched
        assert resource_tracker.register is original

    def test_non_shm_registrations_pass_through(self, monkeypatch):
        from multiprocessing import resource_tracker

        calls = []
        monkeypatch.setattr(
            resource_tracker, "register", lambda name, rtype: calls.append((name, rtype))
        )
        with _suppressed_tracker_registration():
            resource_tracker.register("/x", "shared_memory")  # suppressed
            resource_tracker.register("/y", "semaphore")  # forwarded
        assert calls == [("/y", "semaphore")]
        resource_tracker.register("/z", "shared_memory")  # restored verbatim
        assert calls[-1] == ("/z", "shared_memory")

    def test_concurrent_suppression_is_serialized(self):
        # The shard LRU cache attaches segments from whatever thread
        # faults a shard in; a racy patch would restore the original out
        # of order and either leak the suppression or drop it mid-attach.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        errors = []

        def storm():
            try:
                for _ in range(200):
                    with _suppressed_tracker_registration():
                        assert resource_tracker.register is not original
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert resource_tracker.register is original


class TestShardedSegments:
    def test_round_trip_through_segments(self, flat):
        sharded = _budgeted_sharded(flat)
        blob, flats, shardeds = export_broadcast_parts({"d": sharded})
        assert flats == []
        assert shardeds == [sharded]
        assert len(blob) < 1000  # shards stayed out of the pickle stream
        handle, segments = create_sharded_segments(sharded)
        try:
            assert len(segments) == 1 + sharded.num_shards  # root + leaves
            value, attachments = import_broadcast_parts(blob, None, None, [handle])
            try:
                partial = value["d"]
                assert not partial.cell_ids.flags.writeable  # zero-copy views
                rows = np.arange(flat.num_cells, dtype=np.int64)
                want = flat.gather_subcells(rows)
                got = partial.gather_subcells(rows)
                for got_part, want_part in zip(got, want):
                    np.testing.assert_array_equal(got_part, want_part)
                stats = partial.residency_stats()
                assert stats["peak_resident_bytes"] <= sharded.budget_bytes
                assert stats["shard_evictions"] > 0  # budget actually bit
            finally:
                for attachment in attachments:
                    attachment.close()
        finally:
            for segment in segments:
                destroy_segment(segment)

    def test_create_sharded_segments_all_or_nothing(self, flat, monkeypatch):
        import repro.engine.shm as shm_mod

        sharded = _budgeted_sharded(flat)
        real = shm_mod.pack_arrays
        calls = {"n": 0}

        def failing_pack(arrays):
            calls["n"] += 1
            if calls["n"] == 3:  # root and first shard already created
                raise OSError("synthetic segment-creation failure")
            return real(arrays)

        monkeypatch.setattr(shm_mod, "pack_arrays", failing_pack)
        with pytest.raises(OSError, match="synthetic"):
            create_sharded_segments(sharded)
        # The two segments created before the failure were reclaimed.
        assert own_segments() == []

    def test_engine_install_failure_leaks_nothing(self, flat, monkeypatch):
        import repro.engine.shm as shm_mod

        sharded = _budgeted_sharded(flat)
        broadcast = {"context": (flat, sharded)}

        def failing_create(dictionary):
            raise OSError("synthetic broadcast-install failure")

        with Engine("process", num_workers=2, broadcast_channel="shm") as engine:
            monkeypatch.setattr(shm_mod, "create_sharded_segments", failing_create)
            with pytest.raises(OSError, match="synthetic"):
                engine.map_tasks(
                    lookup_partial, [0, 1], broadcast=broadcast, phase="q"
                )
            # The flat segment packed before the sharded failure was
            # reclaimed: an aborted install never strands a segment.
            assert own_segments() == []
            monkeypatch.undo()
            # The engine survives the failed install — the same value
            # ships cleanly on retry.
            out = engine.map_tasks(
                lookup_partial, [0, 1, 2], broadcast=broadcast, phase="q"
            )
            assert out == [True, True, True]
            for _, stats in engine.collect_broadcast_stats():
                if stats["num_shards"]:
                    assert stats["peak_resident_bytes"] <= sharded.budget_bytes
        assert own_segments() == []


class TestBudgetedFitIdentity:
    def test_budgeted_labels_bit_identical_and_bounded(self, blobs_with_noise):
        budget = 4096
        serial = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=6, seed=0).fit(
            blobs_with_noise
        )
        with Engine("process", num_workers=2, broadcast_channel="shm") as engine:
            budgeted = RPDBSCAN(
                eps=0.3,
                min_pts=10,
                num_partitions=6,
                seed=0,
                engine=engine,
                broadcast_budget=budget,
            ).fit(blobs_with_noise)
        np.testing.assert_array_equal(budgeted.labels, serial.labels)
        np.testing.assert_array_equal(budgeted.core_mask, serial.core_mask)
        residency = budgeted.broadcast_residency
        assert residency is not None
        assert residency["driver"]["budget_bytes"] == budget
        workers = residency["workers"]
        assert workers  # process mode collected per-worker ledgers
        for stats in workers:
            assert stats["peak_resident_bytes"] <= budget
        assert own_segments() == []

    def test_budgeted_fit_survives_chaos_respawn(self, blobs_with_noise):
        serial = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=6, seed=0).fit(
            blobs_with_noise
        )
        policy = FaultPolicy(
            max_retries=8,
            backoff_base_s=0.01,
            backoff_max_s=0.1,
            task_timeout_s=0.4,
            max_respawns=20,
            speculative=False,
            injector=CHAOS_INJECTOR,
        )
        with Engine(
            "process", num_workers=2, fault_policy=policy, broadcast_channel="shm"
        ) as engine:
            chaos = RPDBSCAN(
                eps=0.3,
                min_pts=10,
                num_partitions=6,
                seed=0,
                engine=engine,
                broadcast_budget=4096,
            ).fit(blobs_with_noise)
        # A crash mid-phase re-ships the budgeted broadcast by
        # re-attaching the kept segments; not a single label moves.
        np.testing.assert_array_equal(chaos.labels, serial.labels)
        assert chaos.fault_events.get(FAULT_RESPAWNS, 0) >= 1
        for stats in chaos.broadcast_residency["workers"]:
            assert stats["peak_resident_bytes"] <= 4096
        assert own_segments() == []
