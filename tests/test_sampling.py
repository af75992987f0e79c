"""Tests for block-selection policies and the block sampling engine."""

import numpy as np
import pytest

from repro.bitmap import BlockBitmapIndex, build_bitmap_index
from repro.core.sampler import TupleSampler
from repro.sampling import (
    AnyActiveLookaheadPolicy,
    AnyActiveSyncPolicy,
    BlockSamplingEngine,
    ScanAllPolicy,
)
from repro.core import HistSimConfig
from repro.query import Equals, HistogramQuery, InRange
from repro.storage import (
    CategoricalAttribute,
    ColumnTable,
    CostModel,
    Schema,
    shuffle_table,
)
from repro.storage.cost_model import CACHELINE_BITS
from repro.system import PreparedQuery, SimulatedClock
from repro.system import make_engine as make_system_engine


def make_world(n=6000, candidates=8, groups=4, block_size=50, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            CategoricalAttribute("z", tuple(f"z{i}" for i in range(candidates))),
            CategoricalAttribute("x", tuple(f"x{i}" for i in range(groups))),
        )
    )
    table = ColumnTable(
        schema,
        {
            "z": rng.integers(0, candidates, size=n),
            "x": rng.integers(0, groups, size=n),
        },
    )
    shuffled = shuffle_table(table, block_size, rng)
    index = build_bitmap_index(shuffled, "z")
    return shuffled, index


def make_engine(
    shuffled, index, policy, window=16, seed=1, row_filter=None, candidate_totals=None
):
    clock = SimulatedClock()
    engine = BlockSamplingEngine(
        shuffled=shuffled,
        candidate_attribute="z",
        grouping_attribute="x",
        index=index,
        cost_model=CostModel(),
        clock=clock,
        policy=policy,
        rng=np.random.default_rng(seed),
        window_blocks=window,
        row_filter=row_filter,
        candidate_totals=candidate_totals,
    )
    return engine, clock


class TestPolicies:
    def setup_method(self):
        self.shuffled, self.index = make_world()
        self.cm = CostModel()

    def test_scan_all_reads_everything_free(self):
        policy = ScanAllPolicy()
        blocks = np.arange(5, 25)
        d = policy.select(self.index, blocks, np.array([0, 1]), self.cm, True)
        assert d.read_mask.all()
        assert d.mark_cost_ns == 0.0
        assert d.overlaps_io

    def test_sync_reads_only_blocks_with_active(self):
        policy = AnyActiveSyncPolicy()
        active = np.array([3])
        blocks = np.arange(0, 40)
        d = policy.select(self.index, blocks, active, self.cm, True)
        expected = self.index.blocks_with_value(3)[blocks]
        np.testing.assert_array_equal(d.read_mask, expected)
        assert not d.overlaps_io
        assert d.probes > 0

    def test_sync_probe_count_models_early_exit(self):
        policy = AnyActiveSyncPolicy()
        active = np.array([0, 1, 2])
        blocks = np.arange(0, 10)
        d = policy.select(self.index, blocks, active, self.cm, True)
        expected_probes = 0
        for b in blocks:
            hits = [r for r, v in enumerate(active) if self.index.contains(int(v), int(b))]
            expected_probes += (hits[0] + 1) if hits else active.size
        assert d.probes == expected_probes

    def test_lookahead_same_reads_as_sync(self):
        blocks = np.arange(10, 60)
        active = np.array([2, 5])
        sync = AnyActiveSyncPolicy().select(self.index, blocks, active, self.cm, True)
        look = AnyActiveLookaheadPolicy().select(self.index, blocks, active, self.cm, True)
        np.testing.assert_array_equal(sync.read_mask, look.read_mask)
        assert look.overlaps_io

    def test_lookahead_cheaper_per_block_than_sync_probes(self):
        """The Algorithm 3 cache win: marking a batch costs far less than
        per-block probing for the same decision."""
        blocks = np.arange(0, 120)  # all blocks (world has 120)
        active = np.arange(8)
        sync = AnyActiveSyncPolicy().select(self.index, blocks, active, self.cm, False)
        look = AnyActiveLookaheadPolicy().select(self.index, blocks, active, self.cm, False)
        assert look.mark_cost_ns < sync.mark_cost_ns

    def test_empty_active_reads_nothing(self):
        for policy in (AnyActiveSyncPolicy(), AnyActiveLookaheadPolicy()):
            d = policy.select(
                self.index, np.arange(5), np.array([], dtype=int), self.cm, True
            )
            assert not d.read_mask.any()
            assert d.mark_cost_ns == 0.0


def unpacked_lookahead(index, blocks, active, cost_model, resident):
    """The lookahead decision computed from the unpacked presence matrix."""
    lo, hi = int(blocks.min()), int(blocks.max()) + 1
    presence = index.chunk_presence(active, lo, hi)
    span = hi - lo
    return (
        presence[:, blocks - lo].any(axis=0),
        int(active.size) * (-(-span // CACHELINE_BITS)),
        cost_model.lookahead_mark_cost(active.size, span, resident),
    )


class TestLookaheadIdentity:
    """Packed-OR marking decides, probes and charges exactly what the
    unpacked per-candidate matrix does."""

    def test_matches_unpacked_formulation(self):
        rng = np.random.default_rng(9)
        cm = CostModel()
        policy = AnyActiveLookaheadPolicy()
        for seed in range(4):
            shuffled, index = make_world(
                n=int(rng.integers(500, 20_000)),
                candidates=int(rng.integers(2, 30)),
                block_size=int(rng.integers(1, 60)),
                seed=seed,
            )
            num_blocks = shuffled.num_blocks
            for _ in range(25):
                # Windows as the engine forms them: a contiguous run of the
                # scan order, possibly wrapped, with consumed blocks removed.
                start = int(rng.integers(0, num_blocks))
                width = int(rng.integers(1, min(num_blocks, 700) + 1))
                blocks = (start + np.arange(width)) % num_blocks
                blocks = blocks[rng.random(width) < rng.uniform(0.3, 1.0)]
                if blocks.size == 0:
                    continue
                active = rng.choice(
                    index.cardinality,
                    size=int(rng.integers(1, index.cardinality + 1)),
                    replace=False,
                )
                for resident in (True, False):
                    d = policy.select(index, blocks, active, cm, resident)
                    mask, probes, cost = unpacked_lookahead(
                        index, blocks, active, cm, resident
                    )
                    np.testing.assert_array_equal(d.read_mask, mask)
                    assert d.read_mask.dtype == bool
                    assert d.probes == probes
                    assert d.mark_cost_ns == cost
                    assert d.overlaps_io


class TestScanOrder:
    def test_windows_walk_from_start_and_wrap_once_per_pass(self):
        shuffled, index = make_world(n=6000, block_size=50)  # 120 blocks
        for start in (0, 1, 57, 119):
            engine = BlockSamplingEngine(
                shuffled, "z", "x", index, CostModel(), SimulatedClock(),
                window_blocks=16, start_block=start,
            )
            visited = np.concatenate([engine._window() for _ in range(8)])
            expected = np.concatenate([np.arange(start, 120), np.arange(0, start)])
            np.testing.assert_array_equal(visited, expected)
            # The next pass starts over at the same block.
            assert engine._window()[0] == start


class TestCandidateTotals:
    def test_prepared_totals_equal_filtered_bincount(self):
        rng = np.random.default_rng(2)
        n, candidates = 20_000, 9
        schema = Schema(
            (
                CategoricalAttribute("z", tuple(f"z{i}" for i in range(candidates))),
                CategoricalAttribute("x", tuple(f"x{i}" for i in range(5))),
                CategoricalAttribute("w", tuple(f"w{i}" for i in range(4))),
            )
        )
        z = rng.integers(0, candidates, size=n)
        z[z == 7] = 8  # one candidate with no rows at all
        table = ColumnTable(
            schema,
            {"z": z, "x": rng.integers(0, 5, size=n), "w": rng.integers(0, 4, size=n)},
        )
        config = HistSimConfig(k=2, epsilon=0.2, delta=0.05)
        for predicate in (None, Equals("w", 1), InRange("x", 1, 3)):
            query = (
                HistogramQuery("z", "x", k=2)
                if predicate is None
                else HistogramQuery("z", "x", k=2, predicate=predicate)
            )
            prepared = PreparedQuery.prepare(table, query, np.random.default_rng(4))
            column = prepared.shuffled.table.column("z")
            if prepared.row_filter is not None:
                column = column[prepared.row_filter]
            expected = np.bincount(column, minlength=candidates)
            for approach in ("fastmatch", "syncmatch", "scanmatch"):
                engine = make_system_engine(
                    prepared, approach, config, CostModel(), SimulatedClock(),
                    np.random.default_rng(0),
                )
                np.testing.assert_array_equal(engine.candidate_rows(), expected)
                assert engine.candidate_rows().dtype == np.int64
                assert engine.total_rows == int(expected.sum())

    def test_supplied_totals_match_the_column_fallback(self):
        shuffled, index = make_world(n=4000)
        row_filter = shuffled.table.column("x") != 1
        for mask in (None, row_filter):
            column = shuffled.table.column("z")
            truth = np.bincount(column if mask is None else column[mask], minlength=8)
            supplied, _ = make_engine(
                shuffled, index, AnyActiveLookaheadPolicy(), row_filter=mask,
                candidate_totals=truth.astype(np.int32),
            )
            fallback, _ = make_engine(
                shuffled, index, AnyActiveLookaheadPolicy(), row_filter=mask
            )
            np.testing.assert_array_equal(
                supplied.candidate_rows(), fallback.candidate_rows()
            )
            assert supplied.candidate_rows().dtype == np.int64
            needed = np.full(8, 150.0)
            np.testing.assert_array_equal(
                supplied.sample_until(needed), fallback.sample_until(needed)
            )

    @pytest.mark.parametrize(
        "totals",
        [
            np.zeros(7, dtype=np.int64),
            np.zeros((8, 1), dtype=np.int64),
            np.array([5, 5, 5, 5, -1, 5, 5, 5]),
            np.full(8, 10.0),
        ],
        ids=["short", "2-d", "negative", "float"],
    )
    def test_invalid_totals_rejected(self, totals):
        shuffled, index = make_world(n=1000)
        with pytest.raises(ValueError, match="candidate_totals"):
            make_engine(shuffled, index, ScanAllPolicy(), candidate_totals=totals)


class TestEngineProtocol:
    def test_implements_tuple_sampler(self):
        shuffled, index = make_world()
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        assert isinstance(engine, TupleSampler)
        assert engine.total_rows == 6000
        assert engine.num_candidates == 8
        assert engine.num_groups == 4
        np.testing.assert_array_equal(
            engine.candidate_rows(),
            np.bincount(shuffled.table.column("z"), minlength=8),
        )


class TestSampleUniform:
    def test_delivers_requested_rows(self):
        shuffled, index = make_world()
        engine, clock = make_engine(shuffled, index, ScanAllPolicy())
        counts = engine.sample_uniform(1000)
        # Block granularity: delivered rounds up to a whole block.
        assert 1000 <= counts.sum() <= 1000 + 50
        assert clock.elapsed_ns > 0
        assert clock.breakdown["io"] > 0

    def test_truncates_on_exhaustion(self):
        shuffled, index = make_world(n=500)
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        counts = engine.sample_uniform(10_000)
        assert counts.sum() == 500
        assert engine.fully_scanned

    def test_uniformity_across_start_positions(self):
        """Counts delivered must track true proportions regardless of start."""
        shuffled, index = make_world(n=30_000, candidates=4, seed=3)
        totals = np.bincount(shuffled.table.column("z"), minlength=4)
        for seed in (0, 1, 2):
            engine, _ = make_engine(shuffled, index, ScanAllPolicy(), seed=seed)
            counts = engine.sample_uniform(6000).sum(axis=1)
            np.testing.assert_allclose(
                counts / counts.sum(), totals / totals.sum(), atol=0.03
            )


class TestSampleUntil:
    @pytest.mark.parametrize(
        "policy_cls", [ScanAllPolicy, AnyActiveSyncPolicy, AnyActiveLookaheadPolicy]
    )
    def test_meets_budgets(self, policy_cls):
        shuffled, index = make_world()
        engine, _ = make_engine(shuffled, index, policy_cls())
        needed = np.zeros(8)
        needed[2] = 200
        needed[5] = 100
        fresh = engine.sample_until(needed)
        rows = fresh.sum(axis=1)
        assert rows[2] >= 200
        assert rows[5] >= 100

    @pytest.mark.parametrize(
        "policy_cls", [ScanAllPolicy, AnyActiveSyncPolicy, AnyActiveLookaheadPolicy]
    )
    def test_budget_capped_by_remaining(self, policy_cls):
        shuffled, index = make_world(n=2000)
        engine, _ = make_engine(shuffled, index, policy_cls())
        totals = engine.candidate_rows()
        needed = np.zeros(8)
        needed[0] = np.inf
        fresh = engine.sample_until(needed)
        assert fresh[0].sum() == totals[0]

    def test_never_rereads_blocks(self):
        """Fresh samples must be fresh: rows delivered across calls never
        exceed the table size."""
        shuffled, index = make_world(n=3000)
        engine, _ = make_engine(shuffled, index, AnyActiveLookaheadPolicy())
        engine.sample_uniform(500)
        for _ in range(5):
            engine.sample_until(np.full(8, 200.0))
        assert engine.delivered_rows().sum() <= 3000

    def test_anyactive_skips_blocks_without_active(self):
        """A candidate confined to few blocks: AnyActive must skip the rest."""
        rng = np.random.default_rng(5)
        n = 8000
        z = rng.integers(1, 8, size=n)  # candidate 0 absent...
        z[:40] = 0  # ...except in the first 40 rows
        schema = Schema(
            (
                CategoricalAttribute("z", tuple(f"z{i}" for i in range(8))),
                CategoricalAttribute("x", ("a", "b")),
            )
        )
        table = ColumnTable(schema, {"z": z, "x": rng.integers(0, 2, size=n)})
        shuffled = shuffle_table(table, 50, rng)
        index = build_bitmap_index(shuffled, "z")
        engine, _ = make_engine(shuffled, index, AnyActiveLookaheadPolicy())
        needed = np.zeros(8)
        needed[0] = np.inf  # consume candidate 0 entirely
        fresh = engine.sample_until(needed)
        assert fresh[0].sum() == 40
        assert engine.counters.blocks_skipped > 0
        assert engine.counters.blocks_read < shuffled.num_blocks

    def test_sync_charges_serial_lookahead_charges_pipelined(self):
        shuffled, index = make_world()
        needed = np.full(8, 300.0)

        sync_engine, sync_clock = make_engine(shuffled, index, AnyActiveSyncPolicy())
        sync_engine.sample_until(needed)
        assert sync_clock.breakdown.get("mark", 0) > 0
        assert sync_clock.breakdown.get("overlap_hidden", 0) == 0

        look_engine, look_clock = make_engine(shuffled, index, AnyActiveLookaheadPolicy())
        look_engine.sample_until(needed)
        assert look_clock.breakdown.get("overlap_hidden", 0) > 0

    def test_row_filter_limits_delivery(self):
        shuffled, index = make_world(n=4000)
        x_col = shuffled.table.column("x")
        row_filter = x_col < 2  # keep about half the rows
        engine, _ = make_engine(
            shuffled, index, ScanAllPolicy(), row_filter=row_filter
        )
        fresh = engine.sample_until(np.full(8, np.inf))
        assert fresh.sum() == int(row_filter.sum())
        # Only surviving groups appear.
        assert fresh[:, 2:].sum() == 0

    def test_counts_join_z_and_x_correctly(self):
        shuffled, index = make_world(n=2000)
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        fresh = engine.sample_until(np.full(8, np.inf))
        z, x = shuffled.table.column("z"), shuffled.table.column("x")
        expected = np.zeros((8, 4), dtype=np.int64)
        np.add.at(expected, (z, x), 1)
        np.testing.assert_array_equal(fresh, expected)

    def test_needed_shape_validated(self):
        shuffled, index = make_world()
        engine, _ = make_engine(shuffled, index, ScanAllPolicy())
        with pytest.raises(ValueError):
            engine.sample_until(np.zeros(3))
