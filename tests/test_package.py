import ast
import dataclasses
import math
import typing
from pathlib import Path

import numpy as np

import dapalloc

SRC = Path(__file__).resolve().parents[1] / "src" / "dapalloc"


def test_version():
    assert dapalloc.__version__ == "0.1.0"


def test_core_namespace():
    # the flat names users are expected to reach without submodule imports
    for name in (
        "erfc",
        "erfcx",
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



def _result_bits(r):
    numbers = np.array([r.sum_rate, r.total_power_p, r.ibo_db])
    return (r.drop_id, r.algorithm, r.error, numbers.tobytes(), r.omega.tobytes(), r.rates.tobytes())


def test_traced_rapp_chunk_equals_the_untraced_run(monkeypatch):
    # The tracer's wrappers and observers see every chunk argument of a
    # Rapp-mode run; one that breaks on a chunk, or a trace that moves a
    # bit of the results, fails here.
    from dapalloc import bench
    from dapalloc.scenario import ScenarioConfig

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    sc = ScenarioConfig(n_users=4, m_antennas=8, p_max=0.1, seed=2024)
    plain = bench.evaluate_rapp_mode(sc, 2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = bench.evaluate_rapp_mode(sc, 2)
    assert [list(map(_result_bits, rs)) for rs in traced] == [
        list(map(_result_bits, rs)) for rs in plain
    ]
    assert all(r.error is None for rs in plain for r in rs)
    assert len(tracer.observed["rapp_psi"]) == 5  # 2 drops x 2 DAPA powers + 1 shared REF power


def test_traced_scan_equals_the_untraced_run(monkeypatch):
    # The tracer rebinds names that the curvature scan and its witness
    # search call; a rebinding that breaks them, or moves a bit of a
    # probe, fails here.
    from dapalloc import nonconvexity

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    cfg, ues = nonconvexity.reference_two_user_setup()

    def run():
        return nonconvexity.scan_grid(cfg, ues, 8), nonconvexity.find_indefinite_point(cfg, ues, 8)

    plain = run()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = run()
    assert plain[1] is not None
    assert repr(traced) == repr(plain)
    recorded = set(tracer.name_id)
    for name in ("nonconvexity.scan_grid", "nonconvexity.hessian_eigs", "pa_model.soft"):
        assert tracer.name_of(name) in recorded, name


def _unread_module_names(path):
    """Module-level names and imports of ``path`` that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, exempt = {}, {"annotations"}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
            if path.name == "__init__.py":  # re-exports
                exempt.update(names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if "__all__" in names:
                exempt.update(ast.literal_eval(node.value))
        else:
            continue
        bound.update((name, node.lineno) for name in names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in bound.items()
        if name not in read and name not in exempt and not name.startswith("__")
    ]


def test_every_module_level_name_is_read():
    # a stand-in for a linter's unused-name check; __all__ names and
    # __init__ re-exports are read by importers, not by their module
    unread = [entry for path in sorted(SRC.glob("*.py")) for entry in _unread_module_names(path)]
    assert unread == []


def _unread_parameters(path):
    """Function and lambda parameters of ``path`` that their body never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [
            f"{path.name}:{node.lineno}: {name}({p.arg})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return unread


def test_every_parameter_is_read():
    # a stand-in for a linter's unused-argument check
    unread = [entry for path in sorted(SRC.glob("*.py")) for entry in _unread_parameters(path)]
    assert unread == []


def _number_fields(cls):
    """(name, int or float) of every field of ``cls`` annotated int or float, Optional too."""
    kinds = {int: int, float: float, typing.Optional[int]: int, typing.Optional[float]: float}
    hints = typing.get_type_hints(cls)
    return [(f.name, kinds[hints[f.name]]) for f in dataclasses.fields(cls) if hints[f.name] in kinds]


def _rejects_by_name(valid, name, value):
    try:
        dataclasses.replace(valid, **{name: value})
    except ValueError as exc:
        return str(exc).startswith(f"{name} ")
    except TypeError:
        return False
    return False


def test_every_config_number_field_is_checked():
    # a stand-in for a schema lint: every int or float field of every
    # config, found from its annotation, rejects a value of the wrong kind
    # with a message that names it
    from dapalloc.linklevel import LinkSimConfig
    from dapalloc.metrics import SystemConfig
    from dapalloc.pa_model import PaModel
    from dapalloc.scenario import ScenarioConfig

    valid = [
        SystemConfig(m_antennas=64, p_max=0.01, bandwidth_hz=18e6),
        PaModel("rapp", 2.0),
        ScenarioConfig(n_users=4, m_antennas=16, p_max=0.1, pilot_len=4, rho_ul_w=0.2),
        LinkSimConfig(m_antennas=16, n_users=2, ibo_grid_db=(4.0,)),
    ]
    missed = [
        f"{type(config).__name__}.{name}={value!r}"
        for config in valid
        for name, kind in _number_fields(type(config))
        for value in ([True, 2.5] if kind is int else [True, math.nan, "1"])
        if not _rejects_by_name(config, name, value)
    ]
    assert missed == []
    assert all(_number_fields(type(config)) for config in valid)  # the annotations were read
