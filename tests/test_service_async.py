"""Concurrency stress tests: many async clients, one shared engine.

The acceptance contract of the service front-end: ≥ 32 concurrent clients
multiplex onto one ``QueryEngine`` with results identical to sequential
``QueryEngine(parallel=False)`` execution, no plan-cache corruption, and a
stats ledger whose totals are consistent with the request count.  Plus the
front-end's own semantics: single-flight coalescing (N identical in-flight
queries → one plan, one execution), micro-batching of same-shape floods
into N-wide lifted executions, bounded-queue backpressure, and error
propagation to every coalesced caller.
"""

import asyncio
import random
import threading

import pytest

from repro import QueryEngine, QueryService, parse_query
from repro.engine import PlanCache
from repro.errors import SchemaError
from repro.operations import DECIDE, EXECUTE, operations_of
from repro.workloads import chain_database, path_query, star_database, star_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


@pytest.fixture(scope="module")
def star_db():
    return star_database(3, 120, seed=5)


def _mixed_workload(chain_db, star_db, clients, per_client):
    """Per client, a list of (query, database) mixing shapes and constants."""
    rng = random.Random(17)
    chain_starts = sorted({row[0] for row in chain_db["E"].rows})
    hubs = sorted({row[0] for row in star_db["A1"].rows})
    path3, path4 = path_query(3, head_arity=1), path_query(4, head_arity=1)
    star3 = star_query(3)
    workload = []
    for _ in range(clients):
        requests = []
        for _ in range(per_client):
            shape = rng.randrange(4)
            if shape == 0:
                requests.append((path3, chain_db))
            elif shape == 1:
                value = rng.choice(chain_starts)
                requests.append((path4.decision_instance((value,)), chain_db))
            elif shape == 2:
                hub = rng.choice(hubs + [99_999])
                requests.append((star3.decision_instance((hub,)), star_db))
            else:
                requests.append((star3, star_db))
        workload.append(requests)
    return workload


class TestStress:
    def test_32_clients_mixed_shapes_match_sequential(self, chain_db, star_db):
        clients, per_client = 32, 6
        workload = _mixed_workload(chain_db, star_db, clients, per_client)
        sequential = QueryEngine(parallel=False)
        reference = [
            [sequential.execute(query, db) for query, db in requests]
            for requests in workload
        ]

        async def client(service, requests):
            return [await service.execute(query, db) for query, db in requests]

        async def main():
            async with QueryService(batch_window=0.002) as service:
                results = await asyncio.gather(
                    *(client(service, requests) for requests in workload)
                )
                stats = await service.stats()
            return results, stats

        results, stats = asyncio.run(main())
        for got_list, want_list in zip(results, reference):
            for got, want in zip(got_list, want_list):
                assert got == want
                assert got.rows == want.rows  # identical down to the rows
        counters = stats.service
        assert counters.requests == clients * per_client
        assert counters.failed == 0
        assert counters.completed == counters.submitted
        cache = stats.engine.cache
        assert cache.size <= cache.capacity

    def test_ledger_totals_consistent_with_request_count(self, chain_db):
        """No batching, no duplicates: every request is one recorded
        execution — the ledger's totals must agree exactly."""
        clients, per_client = 32, 4
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        assert len(starts) >= clients * per_client
        instances = [
            query.decision_instance((value,))
            for value in starts[: clients * per_client]
        ]

        async def main():
            async with QueryService(batch_window=0.0) as service:
                chunks = [
                    instances[i * per_client : (i + 1) * per_client]
                    for i in range(clients)
                ]

                async def client(chunk):
                    return [await service.execute(q, chain_db) for q in chunk]

                await asyncio.gather(*(client(chunk) for chunk in chunks))
                return await service.stats()

        stats = asyncio.run(main())
        assert stats.service.coalesced == 0
        assert stats.engine.executions == clients * per_client
        assert stats.service.completed == clients * per_client
        # One shape, planned once, shared by every client.
        assert stats.engine.cache.misses == 1
        assert stats.engine.cache.hits == clients * per_client - 1

    def test_concurrent_decides_match_sequential(self, star_db):
        query = star_query(3)
        hubs = sorted({row[0] for row in star_db["A1"].rows})[:40]
        candidates = hubs + [77_777, 88_888]
        instances = [query.decision_instance((hub,)) for hub in candidates]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.decide(q, star_db) for q in instances]

        async def main():
            async with QueryService(batch_window=0.01) as service:
                return await asyncio.gather(
                    *(service.decide(q, star_db) for q in instances)
                )

        assert list(asyncio.run(main())) == reference


class TestSingleFlight:
    def test_identical_queries_one_plan_one_execution(self, chain_db):
        """The CI coalescing contract: N identical concurrent queries →
        1 plan-cache miss, 1 engine execution, N identical results."""
        n = 32
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService(batch_window=0.0) as service:
                results = await asyncio.gather(
                    *(service.execute(query, chain_db) for _ in range(n))
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert all(result == results[0] for result in results)
        assert stats.service.coalesced == n - 1
        assert stats.service.submitted == 1
        assert stats.engine.executions == 1
        assert stats.engine.cache.misses == 1

    def test_distinct_queries_do_not_coalesce(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:8]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(batch_window=0.0) as service:
                await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return await service.stats()

        stats = asyncio.run(main())
        assert stats.service.coalesced == 0
        assert stats.engine.executions == len(instances)

    @pytest.mark.parametrize("window", [0.0, 0.01])
    def test_error_propagates_to_every_coalesced_caller(self, chain_db, window):
        """Both failure sites — admission (the shape key is computed
        before enqueue when the window is open) and execution — must
        complete the shared future; neither may leave coalesced callers
        hanging."""
        bad = parse_query("Q(x) :- NoSuchRelation(x, y).")

        async def main():
            async with QueryService(batch_window=window) as service:
                return await asyncio.wait_for(
                    asyncio.gather(
                        *(service.execute(bad, chain_db) for _ in range(6)),
                        return_exceptions=True,
                    ),
                    timeout=10,
                )

        outcomes = asyncio.run(main())
        assert len(outcomes) == 6
        assert all(isinstance(outcome, SchemaError) for outcome in outcomes)


class TestMicroBatching:
    def test_same_shape_flood_collapses_into_groups(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:48]
        instances = [query.decision_instance((value,)) for value in starts]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.execute(q, chain_db) for q in instances]

        async def main():
            async with QueryService(batch_window=0.05) as service:
                results = await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert list(results) == reference
        # The flood rode a handful of groups, not 48 single dispatches.
        assert stats.service.groups < len(instances)
        assert stats.service.max_group > 1
        assert stats.service.batched > 0

    def test_batch_limit_flushes_early(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:20]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(
                batch_window=0.2, batch_limit=8
            ) as service:
                results = await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert stats.service.max_group <= 8
        sequential = QueryEngine(parallel=False)
        for got, instance in zip(results, instances):
            assert got == sequential.execute(instance, chain_db)

    def test_window_zero_disables_batching(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:10]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(batch_window=0.0) as service:
                await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return await service.stats()

        stats = asyncio.run(main())
        assert stats.service.batched == 0
        assert stats.service.max_group == 1

    def test_decide_flood_routes_through_decision_lifting(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:32]
        candidates = starts + [999_999]
        instances = [query.decision_instance((value,)) for value in candidates]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.decide(q, chain_db) for q in instances]

        async def main():
            async with QueryService(batch_window=0.05) as service:
                decisions = await asyncio.gather(
                    *(service.decide(q, chain_db) for q in instances)
                )
                return decisions, await service.stats()

        decisions, stats = asyncio.run(main())
        assert list(decisions) == reference
        assert stats.service.max_group > 1


class TestFacade:
    def test_explicit_batches_and_explain(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:12]
        instances = [query.decision_instance((value,)) for value in starts]
        sequential = QueryEngine(parallel=False)

        async def main():
            async with QueryService() as service:
                results = await service.run_batch(operations_of(EXECUTE, instances), chain_db)
                decisions = await service.run_batch(operations_of(DECIDE, instances), chain_db)
                rendering = await service.explain(query, chain_db)
                empty = await service.run_batch(operations_of(EXECUTE, []), chain_db)
                return results, decisions, rendering, empty

        results, decisions, rendering, empty = asyncio.run(main())
        assert results == [sequential.execute(q, chain_db) for q in instances]
        assert decisions == [sequential.decide(q, chain_db) for q in instances]
        assert "QueryPlan" in rendering and "evaluator" in rendering
        assert empty == []

    def test_injected_engine_is_shared_and_not_closed(self, chain_db):
        engine = QueryEngine(parallel=False)
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryService(engine) as service:
                await service.execute(query, chain_db)

        asyncio.run(main())
        # The injected engine survives service shutdown and kept the work.
        assert engine.stats().executions == 1
        assert engine.execute(query, chain_db) is not None

    def test_engine_kwargs_conflict_rejected(self):
        with pytest.raises(ValueError):
            QueryService(QueryEngine(), parallel=False)

    def test_dispatch_pool_is_separate_from_engine_pool(self, chain_db):
        """Dispatch must not run as tasks *of the engine's pool* — that
        would trip its re-entrancy guard and silently serialize every
        batch fan-out beneath the service."""
        engine = QueryEngine()
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryService(engine) as service:
                await service.execute(query, chain_db)
                assert service._pool is not engine.pool

        asyncio.run(main())
        engine.close()

    def test_bounded_queue_backpressure_still_completes(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:24]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(
                batch_window=0.0, max_pending=1, dispatchers=1
            ) as service:
                results = await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert stats.service.completed == len(instances)
        sequential = QueryEngine(parallel=False)
        assert list(results) == [
            sequential.execute(q, chain_db) for q in instances
        ]

    def test_closed_service_rejects_new_requests(self, chain_db):
        query = path_query(3, head_arity=1)

        async def main():
            service = QueryService()
            await service.execute(query, chain_db)
            await service.aclose()
            await service.aclose()  # idempotent
            with pytest.raises(RuntimeError):
                await service.execute(query, chain_db)

        asyncio.run(main())

    def test_pending_work_completes_through_aclose(self, chain_db):
        """Requests still collecting in a batch window when aclose runs
        are flushed and answered, never stranded."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:6]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            service = QueryService(batch_window=5.0)  # would wait 5 s
            tasks = [
                asyncio.ensure_future(service.execute(q, chain_db))
                for q in instances
            ]
            await asyncio.sleep(0.05)  # all collecting, none dispatched
            await service.aclose()
            return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        sequential = QueryEngine(parallel=False)
        assert list(results) == [
            sequential.execute(q, chain_db) for q in instances
        ]


class TestCancellation:
    def test_cancelled_originator_does_not_strand_coalesced(self, chain_db):
        """The in-flight entry outlives its originating caller: a
        coalesced waiter still completes after the originator cancels."""
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService(batch_window=0.0) as service:
                first = asyncio.ensure_future(service.execute(query, chain_db))
                await asyncio.sleep(0)  # originator registers in flight
                second = asyncio.ensure_future(service.execute(query, chain_db))
                await asyncio.sleep(0)
                first.cancel()
                result = await second
                stats = await service.stats()
                return result, stats

        result, stats = asyncio.run(main())
        assert result == QueryEngine(parallel=False).execute(query, chain_db)
        assert stats.service.coalesced == 1

    def test_cancelled_caller_mid_backpressure_loses_nothing(self, chain_db):
        """Cancelling a caller awaiting queue admission must not lose its
        group: the enqueue is service-owned and completes anyway."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:12]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(
                batch_window=0.0, max_pending=1, dispatchers=1
            ) as service:
                tasks = [
                    asyncio.ensure_future(service.execute(q, chain_db))
                    for q in instances
                ]
                await asyncio.sleep(0.005)
                tasks[-1].cancel()
                return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(main())
        sequential = QueryEngine(parallel=False)
        completed = 0
        for instance, outcome in zip(instances, outcomes):
            if isinstance(outcome, asyncio.CancelledError):
                continue
            assert outcome == sequential.execute(instance, chain_db)
            completed += 1
        assert completed >= len(instances) - 1

    def test_cancelled_member_does_not_strand_batch(self, chain_db):
        """Cancelling one member of a collecting micro-batch leaves the
        rest of the group intact and correctly answered."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:6]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(batch_window=0.05) as service:
                tasks = [
                    asyncio.ensure_future(service.execute(q, chain_db))
                    for q in instances
                ]
                await asyncio.sleep(0.01)  # all collecting, none flushed
                tasks[2].cancel()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                # No dead flushed groups may linger in the collector map.
                assert service._collecting == {}
                return outcomes

        outcomes = asyncio.run(main())
        sequential = QueryEngine(parallel=False)
        for position, (instance, outcome) in enumerate(zip(instances, outcomes)):
            if position == 2:
                assert isinstance(outcome, asyncio.CancelledError)
            else:
                assert outcome == sequential.execute(instance, chain_db)


class TestEngineThreadSafety:
    def test_plan_cache_hammered_from_threads(self):
        cache = PlanCache(capacity=16)
        errors = []
        operations = 400

        def worker(seed):
            rng = random.Random(seed)
            try:
                for i in range(operations):
                    key = ("shape", rng.randrange(48))
                    if cache.get(key) is None:
                        cache.put(key, ("plan", key))
                    if i % 97 == 0:
                        cache.invalidate(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats
        assert len(cache) <= 16
        assert stats.size <= stats.capacity
        assert stats.hits + stats.misses == 8 * operations

    def test_shared_engine_from_raw_threads(self, chain_db):
        """Below the asyncio layer: the engine itself is thread-safe."""
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:32]
        sequential = QueryEngine(parallel=False)
        reference = {
            value: sequential.execute(
                query.decision_instance((value,)), chain_db
            )
            for value in starts
        }
        mismatches = []

        def worker(values):
            for value in values:
                got = engine.execute(query.decision_instance((value,)), chain_db)
                if got != reference[value]:
                    mismatches.append(value)

        threads = [
            threading.Thread(target=worker, args=(starts[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []
        stats = engine.stats()
        assert stats.executions == len(starts)
        engine.close()
