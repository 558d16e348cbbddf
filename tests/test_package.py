import dapalloc


def test_version():
    assert dapalloc.__version__ == "0.1.0"


def test_core_namespace():
    # the flat names users are expected to reach without submodule imports
    for name in (
        "erfc",
        "erfcx",
        "lambert_w0",
        "bussgang_gain_soft",
        "distortion_coeff_soft",
        "SystemConfig",
        "UeSet",
        "Allocation",
        "evaluate",
        "solve_dapa",
        "solve_fpda",
        "alternating_optimize",
        "ALGORITHMS",
        "ScenarioConfig",
        "drop_ues",
    ):
        assert hasattr(dapalloc, name), name


def test_heavier_layers_stay_behind_submodules():
    # bench / cli / linklevel / nonconvexity import lazily on purpose
    import dapalloc.bench
    import dapalloc.cli
    import dapalloc.linklevel
    import dapalloc.nonconvexity

    assert callable(dapalloc.cli.main)
    assert callable(dapalloc.bench.run_montecarlo)


def test_benchmark_tracer_binds_and_restores(monkeypatch):
    # perfbench/tracing.py rebinds public functions by name in the
    # modules that call them; a renamed or deleted name breaks it here
    from pathlib import Path

    from dapalloc import dapa, numerics

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    with tracing.instrument(tracing.Tracer()):
        assert dapa.erfc is not numerics.erfc
    assert dapa.erfc is numerics.erfc
