"""Unit tests for Resource, Store, BandwidthPipe and WorkerPool."""

import pytest

from repro.sim import BandwidthPipe, Resource, Simulator, Store, WorkerPool


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_release(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def user(name, hold):
            yield res.acquire()
            log.append((sim.now, name, "in"))
            yield sim.timeout(hold)
            res.release()
            log.append((sim.now, name, "out"))

        sim.process(user("a", 2.0))
        sim.process(user("b", 1.0))
        sim.run()
        assert log == [
            (0.0, "a", "in"),
            (2.0, "a", "out"),
            (2.0, "b", "in"),
            (3.0, "b", "out"),
        ]

    def test_counts(self, sim):
        res = Resource(sim, capacity=2)

        def holder():
            yield res.acquire()
            yield sim.timeout(10.0)

        for _ in range(3):
            sim.process(holder())
        sim.run(until=1.0)
        assert res.in_use == 2

    def test_release_without_acquire(self, sim):
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_blocking_get(self, sim):
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        def putter():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def getter():
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(getter())
        sim.run()
        assert got == [1, 2, 3]


class TestBandwidthPipe:
    def test_duration(self, sim):
        pipe = BandwidthPipe(sim, bandwidth=100.0, latency=1.0)
        assert pipe.duration_of(200) == pytest.approx(3.0)

    def test_single_transfer(self, sim):
        pipe = BandwidthPipe(sim, bandwidth=10.0)
        done = []

        def proc():
            yield pipe.transfer(50)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_serialization(self, sim):
        pipe = BandwidthPipe(sim, bandwidth=10.0)
        done = []

        def proc(name, nbytes):
            yield pipe.transfer(nbytes)
            done.append((sim.now, name))

        sim.process(proc("first", 10))
        sim.process(proc("second", 10))
        sim.run()
        assert done == [(pytest.approx(1.0), "first"), (pytest.approx(2.0), "second")]

    def test_accounting(self, sim):
        pipe = BandwidthPipe(sim, bandwidth=10.0)
        pipe.transfer(30)
        pipe.transfer(70)
        sim.run()
        assert pipe.bytes_moved == 100
        assert pipe.jobs_done == 2

    def test_negative_bytes_rejected(self, sim):
        pipe = BandwidthPipe(sim, bandwidth=10.0)
        with pytest.raises(ValueError):
            pipe.transfer(-1)

    def test_bad_bandwidth_rejected(self, sim):
        with pytest.raises(ValueError):
            BandwidthPipe(sim, bandwidth=0)


class TestWorkerPool:
    def test_single_worker_serializes(self, sim):
        pool = WorkerPool(sim, workers=1)
        done = []
        for name, service in (("a", 2.0), ("b", 1.0)):
            pool.submit(service, payload=name).add_callback(
                lambda e: done.append((sim.now, e.value))
            )
        sim.run()
        assert done == [(2.0, "a"), (3.0, "b")]

    def test_parallel_workers(self, sim):
        pool = WorkerPool(sim, workers=2)
        done = []
        for name in ("a", "b"):
            pool.submit(1.0, payload=name).add_callback(
                lambda e: done.append((sim.now, e.value))
            )
        sim.run()
        assert done == [(1.0, "a"), (1.0, "b")]

    def test_urgent_overtakes_queued(self, sim):
        pool = WorkerPool(sim, workers=1)
        done = []

        def driver():
            pool.submit(5.0, payload="slow1").add_callback(lambda e: done.append(e.value))
            yield sim.timeout(0.1)  # slow1 now in service
            pool.submit(5.0, payload="slow2").add_callback(lambda e: done.append(e.value))
            pool.submit(1.0, payload="urgent", urgent=True).add_callback(
                lambda e: done.append(e.value)
            )

        sim.process(driver())
        sim.run()
        # slow1 is already in service (no preemption); urgent jumps
        # ahead of the queued slow2.
        assert done == ["slow1", "urgent", "slow2"]

    def test_front_makes_lifo(self, sim):
        pool = WorkerPool(sim, workers=1)
        done = []

        def driver():
            pool.submit(1.0, payload="busy").add_callback(lambda e: done.append(e.value))
            yield sim.timeout(0.1)  # busy in service; next two queue
            for name in ("old", "new"):
                pool.submit(1.0, payload=name, front=True).add_callback(
                    lambda e: done.append(e.value)
                )

        sim.process(driver())
        sim.run()
        assert done == ["busy", "new", "old"]

    def test_busy_accounting(self, sim):
        pool = WorkerPool(sim, workers=1)
        pool.submit(2.0)
        pool.submit(3.0)
        sim.run()
        assert pool.busy_seconds == pytest.approx(5.0)
        assert pool.jobs_done == 2

    def test_negative_service_rejected(self, sim):
        pool = WorkerPool(sim, workers=1)
        with pytest.raises(ValueError):
            pool.submit(-0.1)

    def test_worker_count_validation(self, sim):
        with pytest.raises(ValueError):
            WorkerPool(sim, workers=0)
