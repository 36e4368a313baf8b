"""The executor seam: the serial backend's laziness and cancellation."""

from repro.fleet.executors import SerialExecutor


class TestSerialExecutor:
    def test_runs_lazily_in_submission_order(self):
        ran = []
        with SerialExecutor() as executor:
            futures = [
                executor.submit(ran.append, tag) for tag in ("a", "b", "c")
            ]
            assert ran == []  # nothing runs until as_completed is consumed
            completed = list(executor.as_completed())
        assert ran == ["a", "b", "c"]
        assert completed == futures

    def test_cancel_futures_abandons_the_queue(self):
        ran = []
        executor = SerialExecutor()
        executor.submit(ran.append, "first")
        executor.submit(ran.append, "second")
        stream = executor.as_completed()
        next(stream)
        executor.shutdown(cancel_futures=True)
        assert list(stream) == []
        assert ran == ["first"]

    def test_initializer_runs_in_process(self):
        seen = []
        SerialExecutor(initializer=seen.append, initargs=("configured",))
        assert seen == ["configured"]

    def test_failure_travels_through_the_future(self):
        def _boom():
            raise ValueError("nope")

        executor = SerialExecutor()
        executor.submit(_boom)
        (future,) = list(executor.as_completed())
        assert isinstance(future.exception(), ValueError)
