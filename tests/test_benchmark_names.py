"""The benchmark's ``--trace 1`` mode wraps public names of balora by
rebinding them. Deleting or renaming one of those names must fail the
test suite, not only a traced benchmark run."""

from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_install_tracing_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from tracer import Tracer
    from workloads import install_tracing

    from balora import tensor as T
    from balora import variational as V

    originals = (T.linear, V.kl_normalized)
    tracer = Tracer()
    with install_tracing(tracer):
        assert (T.linear, V.kl_normalized) != originals
        V.kl_normalized([1.0], 0.5)
    assert (T.linear, V.kl_normalized) == originals
    assert [span[0] for span in tracer.spans] == ["variational.kl_normalized"]
