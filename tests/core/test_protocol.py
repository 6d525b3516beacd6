"""The mergeable-analysis contract: registry completeness, picklable
partials, and merge associativity / order-insensitivity.

The load-bearing property: for every registered analysis, feeding the
connection stream through ONE partial, or through partials over ANY
split of the stream merged in ANY order, finalizes to byte-identical
tables. That is what makes the shard executor provably equivalent to
the sequential pipeline.
"""

import importlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.dataset import ProfileStore
from tests.core import profile_state


@pytest.fixture(scope="module")
def context(small_result):
    return protocol.AnalysisContext.from_enriched(small_result.enriched)


def _finalized(partial):
    return partial.finalize().render()


def _chunks(connections, raw_views, splits):
    """The enriched and raw streams cut at ``splits``, chunk by chunk."""
    bounds = [0, *sorted(splits), len(connections)]
    chunks = [
        connections[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)
    ]
    raw_bounds = [0, *sorted(s % (len(raw_views) + 1) for s in splits), len(raw_views)]
    raw_bounds = sorted(raw_bounds)
    raw_chunks = [
        raw_views[raw_bounds[i]:raw_bounds[i + 1]]
        for i in range(len(raw_bounds) - 1)
    ]
    return [
        (chunk, raw_chunks[index] if index < len(raw_chunks) else [])
        for index, chunk in enumerate(chunks)
    ]


def _standalone_set(context, chunk, raw_chunk):
    """One private partial per analysis, each fed on its own — the
    shape of the legacy wrappers and of state written before the
    population partials shared a store."""
    partials = {}
    for analysis in protocol.iter_analyses():
        partial = analysis.factory(context)
        for conn in chunk:
            partial.update(conn)
        if analysis.needs_raw:
            for view in raw_chunk:
                partial.update_raw(view)
        partials[analysis.name] = partial
    return partials


def _driver_set(context, chunk, raw_chunk):
    partials = protocol.create_partials(None, context)
    protocol.update_partials(partials, chunk, raw_chunk)
    return partials


def _run_split(
    context, connections, raw_views, splits, order, driver=False, shapes=None
):
    """Feed each chunk into its own set of partials and merge the sets
    in the given order: standalone partials merged one by one, or with
    ``driver`` through create/update/merge_partials. ``shapes`` picks
    the driver or standalone shape per chunk (driver mode only)."""
    sets = []
    for index, (chunk, raw_chunk) in enumerate(_chunks(connections, raw_views, splits)):
        shared = driver if shapes is None else shapes[index]
        build = _driver_set if shared else _standalone_set
        sets.append(build(context, chunk, raw_chunk))
    ordered = [sets[i] for i in order] if order else sets
    merged = ordered[0]
    for other in ordered[1:]:
        if driver:
            protocol.merge_partials(merged, other)
        else:
            for name, partial in other.items():
                merged[name].merge(partial)
    return merged


def _population(partials):
    return [p for p in partials.values() if isinstance(p, protocol.PopulationPartial)]


def _reference_store(connections):
    store = ProfileStore()
    for conn in connections:
        store.observe(conn.view)
    return profile_state(store)


def _draw_split(data, length):
    n_chunks = data.draw(st.integers(min_value=2, max_value=5))
    splits = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=length),
                min_size=n_chunks - 1, max_size=n_chunks - 1,
            )
        )
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    order = list(range(n_chunks))
    random.Random(seed).shuffle(order)
    return splits, order


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        names = protocol.analysis_names()
        for name in protocol.PAPER_TABLE_ORDER:
            assert name in names
        assert len(names) == len(set(names))

    def test_names_are_paper_ordered(self):
        names = protocol.analysis_names()
        in_order = [n for n in names if n in protocol.PAPER_TABLE_ORDER]
        assert tuple(in_order) == protocol.PAPER_TABLE_ORDER

    def test_legacy_names_resolve(self):
        """Every migration-table entry points at a real callable."""
        for analysis in protocol.iter_analyses():
            if not analysis.legacy:
                continue
            parts = analysis.legacy.split(".")
            target = None
            depth = 0
            for i in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:i]))
                    depth = i
                    break
                except ModuleNotFoundError:
                    continue
            assert target is not None, analysis.legacy
            for part in parts[depth:]:
                target = getattr(target, part)
            assert callable(target), analysis.legacy

    def test_duplicate_name_with_different_factory_rejected(self):
        existing = protocol.get_analysis("table1")
        with pytest.raises(ValueError, match="already registered"):
            protocol.register(
                protocol.Analysis(
                    name="table1", title="x", factory=lambda ctx: None
                )
            )
        assert protocol.get_analysis("table1") is existing

    def test_reregistering_same_factory_is_idempotent(self):
        existing = protocol.get_analysis("table1")
        protocol.register(existing)
        assert protocol.get_analysis("table1") is existing

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="table1"):
            protocol.get_analysis("no-such-analysis")


class TestPartialMechanics:
    def test_empty_partials_finalize(self, context):
        """A shard with zero connections must still merge and render."""
        for analysis in protocol.iter_analyses():
            empty = analysis.factory(context)
            table = empty.finalize()
            assert table.title, analysis.name

    def test_partials_are_picklable(self, context, small_result):
        """Partials cross process boundaries; pickling is load-bearing."""
        partials = protocol.run_analyses(
            small_result.enriched, raw=small_result.dataset, context=context
        )
        for name, partial in partials.items():
            clone = pickle.loads(pickle.dumps(partial))
            assert _finalized(clone) == _finalized(partial), name

    def test_run_analyses_subset(self, small_result):
        partials = protocol.run_analyses(small_result.enriched, ["table5", "tls13"])
        assert sorted(partials) == ["table5", "tls13"]

    def test_merge_empty_is_identity(self, context, small_result):
        for analysis in protocol.iter_analyses():
            full = analysis.factory(context)
            for conn in small_result.enriched.connections:
                full.update(conn)
            if analysis.needs_raw:
                for view in small_result.dataset.connections:
                    full.update_raw(view)
            reference = _finalized(full)
            full.merge(analysis.factory(context))
            assert _finalized(full) == reference, analysis.name


class TestMergeEquivalence:
    """Sequential == any shard split == any (shuffled) merge order."""

    def test_halves_match_sequential(self, context, small_result):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        mid = len(connections) // 2
        sequential = _run_split(context, connections, raw, [], [])
        halves = _run_split(context, connections, raw, [mid], [])
        for name, partial in sequential.items():
            assert _finalized(halves[name]) == _finalized(partial), name

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_splits_and_orders(self, data, context, small_result):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        splits, order = _draw_split(data, len(connections))
        sequential = _run_split(context, connections, raw, [], [])
        shuffled = _run_split(context, connections, raw, splits, order)
        for name, partial in sequential.items():
            assert _finalized(shuffled[name]) == _finalized(partial), name


class TestDriverPath:
    """Driver-built sets share one profile store among the population
    partials; split, merged and pickled, they still render the
    standalone tables and hold exactly the whole-stream population."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_shared_store_matches_standalone(self, data, context, small_result):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        splits, order = _draw_split(data, len(connections))
        standalone = _run_split(context, connections, raw, [], [])
        merged = _run_split(context, connections, raw, splits, order, driver=True)
        for name, partial in standalone.items():
            assert _finalized(merged[name]) == _finalized(partial), name
        population = _population(merged)
        assert len(population) == 9
        assert len({id(p.store) for p in population}) == 1
        # No table reads connection_count or client_ips, so a store
        # observed or merged twice would pass every table check above.
        assert profile_state(population[0].store) == _reference_store(connections)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_pickled_set_keeps_one_store(self, data, context, small_result):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        splits, order = _draw_split(data, len(connections))
        merged = _run_split(context, connections, raw, splits, order, driver=True)
        clone = pickle.loads(pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL))
        population = _population(clone)
        assert len(population) == 9
        assert len({id(p.store) for p in population}) == 1
        assert profile_state(population[0].store) == _reference_store(connections)
        for name, partial in merged.items():
            assert _finalized(clone[name]) == _finalized(partial), name

    @pytest.mark.parametrize("into_shared", [True, False])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_private_store_state_merges_with_shared(
        self, data, into_shared, context, small_result
    ):
        """Sets shaped like state spilled before stores were shared
        (nine private stores) merge into driver-built sets, and the
        reverse."""
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        splits, order = _draw_split(data, len(connections))
        shapes = data.draw(
            st.lists(st.booleans(), min_size=len(order), max_size=len(order))
        )
        shapes[order[0]] = into_shared
        shapes[order[1]] = not into_shared
        standalone = _run_split(context, connections, raw, [], [])
        merged = _run_split(
            context, connections, raw, splits, order, driver=True, shapes=shapes
        )
        reference = _reference_store(connections)
        for partial in _population(merged):
            assert profile_state(partial.store) == reference
        for name, partial in standalone.items():
            assert _finalized(merged[name]) == _finalized(partial), name

    def test_standalone_partials_keep_private_stores(self, context):
        partials = {
            analysis.name: analysis.factory(context)
            for analysis in protocol.iter_analyses()
        }
        population = _population(partials)
        assert len({id(p.store) for p in population}) == len(population) == 9
