import ast
import dataclasses
import math
import typing
from pathlib import Path

import numpy as np
import pytest

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


# The number arguments of every public function of the model modules, by
# kind: an int is a count of at least that int, and the strings are the
# real kinds of dapalloc._fields ("fractions" is a nonnegative array that
# sums to 1).  Each entry also holds a valid call's other arguments.
_MODEL_MODULES = ("metrics", "pa_model", "dapa", "fpda", "allocator", "scenario", "nonconvexity")
_NOT_NUMBER_TAKERS = {
    "metrics.SystemConfig": "a config: test_every_config_number_field_is_checked",
    "pa_model.PaModel": "a config: test_every_config_number_field_is_checked",
    "scenario.ScenarioConfig": "a config: test_every_config_number_field_is_checked",
    "linklevel.LinkSimConfig": "a config: test_every_config_number_field_is_checked",
    "metrics.EvalReport": "a record of computed values, built by evaluate",
    "pa_model.PaOperatingPoint": "a record of computed values, built by operating_point_at",
    "dapa.DapaResult": "a record of computed values, built by solve_dapa",
    "dapa.SolverError": "an exception; its diagnostics are a record",
    "allocator.AoTrace": "a record of computed values, built by alternating_optimize",
    "nonconvexity.HessianProbe": "a record of computed values, built by hessian_eigs",
    "linklevel.LinkSdrPoint": "a record of computed values, built by simulate_sdr",
}


def _model_setup():
    from dapalloc.metrics import Allocation, SystemConfig, UeSet, operating_point_at
    from dapalloc.scenario import ScenarioConfig

    cfg = SystemConfig(m_antennas=8, p_max=0.1, bandwidth_hz=18e6)
    ues = UeSet(beta=np.array([1e-10, 1e-11]), noise_w=np.full(2, 7.2e-14), csi_delta=np.full(2, 0.1))
    half = np.full(2, 0.5)
    op = operating_point_at(cfg, 0.5)
    sc, sc2 = (ScenarioConfig(n_users=k, m_antennas=8, p_max=0.1) for k in (4, 2))
    alloc = Allocation(0.5, half)
    return {
        # name: (number arguments by kind, the valid call's other arguments and numbers)
        "metrics.UeSet": ({"beta": "positive", "noise_w": "positive", "csi_delta": "nonnegative"},
                          dict(beta=np.array([1e-10, 1e-11]), noise_w=np.full(2, 7.2e-14),
                               csi_delta=np.array([0.1, 0.2]))),
        "metrics.Allocation": ({"total_power_p": "nonnegative", "omega": "fractions"},
                               dict(total_power_p=0.5, omega=half)),
        "metrics.operating_point_at": ({"total_power_p": "nonnegative"},
                                       dict(cfg=cfg, total_power_p=0.5)),
        "metrics.zf_gain": ({}, dict(cfg=cfg, ues=ues)),
        "metrics.sindr": ({}, dict(cfg=cfg, ues=ues, alloc=alloc, op=op, precoder="zf")),
        "metrics.rates": ({"sindr": "nonnegative"}, dict(cfg=cfg, sindr=np.array([1.0, 3.0]))),
        "metrics.evaluate": ({}, dict(cfg=cfg, ues=ues, alloc=alloc, precoder="zf")),
        "metrics.csi_error_factor": ({"beta": "nonnegative", "pilot_len": 1, "rho_ul_w": "positive"},
                                     dict(beta=1e-10, pilot_len=4, rho_ul_w=0.2)),
        "pa_model.input_backoff": ({"total_power_p": "positive", "m_antennas": 1, "p_max": "positive"},
                                   dict(total_power_p=1.0, m_antennas=64, p_max=0.01)),
        "pa_model.bussgang_gain_soft": ({"psi": "backoff"}, dict(psi=2.0)),
        "pa_model.distortion_coeff_soft": ({"psi": "backoff"}, dict(psi=2.0)),
        "pa_model.bussgang_gain_rapp": ({"psi": "backoff", "p": "positive"}, dict(psi=2.0, p=2.0)),
        "pa_model.distortion_coeff_rapp": ({"psi": "backoff", "p": "positive"}, dict(psi=2.0, p=2.0)),
        "dapa.power_balance": ({"total_power_p": "positive", "sigma2": "positive", "beta": "positive"},
                               dict(total_power_p=0.2, sigma2=7.2e-14, beta=1e-10, cfg=cfg)),
        "dapa.root_bounds": ({"sigma2": "positive", "beta": "positive"},
                             dict(sigma2=7.2e-14, beta=1e-10, cfg=cfg)),
        "dapa.sum_rate_derivative": ({"total_power_p": "positive", "omega": "fractions"},
                                     dict(total_power_p=0.3, ues=ues, omega=half, cfg=cfg)),
        "dapa.default_delta": ({}, dict(cfg=cfg)),
        "dapa.solve_dapa": ({"omega": "fractions", "delta": "positive"},
                            dict(ues=ues, omega=half, cfg=cfg, delta=1e-6)),
        "fpda.breakpoints": ({"total_power_p": "positive"},
                             dict(ues=ues, cfg=cfg, total_power_p=0.5, op=op)),
        "fpda.solve_fpda": ({"g": "nonnegative"}, dict(g=np.array([0.1, 0.3]))),
        "allocator.alternating_optimize": ({"delta": "positive", "max_iters": 1},
                                           dict(ues=ues, cfg=cfg, delta=1e-6, max_iters=100)),
        **{f"allocator.{name}": ({}, dict(ues=ues, cfg=cfg))
           for name in ("ref_e", "ref_fpda", "dapa_e", "dapa_fpda")},
        "scenario.path_loss_db": ({"d_m": "positive", "fc_ghz": "positive"}, dict(d_m=100.0, fc_ghz=3.0)),
        "scenario.noise_power_w": ({"n_subcarriers": 1, "delta_f_hz": "positive"},
                                   dict(n_subcarriers=1200, delta_f_hz=15e3)),
        "scenario.drop_ues": ({"drop_id": 0}, dict(sc=sc, drop_id=3)),
        "scenario.homogeneous_sweep": ({"pl_db_grid": "real"}, dict(pl_db_grid=[80.0, 100.0], sc=sc)),
        "scenario.two_ue_grid": ({"lo_db": "real", "hi_db": "real", "step_db": "positive"},
                                 dict(lo_db=60.0, hi_db=70.0, step_db=5.0, sc=sc2)),
        "nonconvexity.sum_rate_2ue": ({"p1": "nonnegative", "p2": "nonnegative"},
                                      dict(p1=0.1, p2=0.2, cfg=cfg, ues=ues)),
        "nonconvexity.hessian_eigs": ({"probe_point": "positive", "step": "positive"},
                                      dict(probe_point=(0.1, 0.2), cfg=cfg, ues=ues, step=1e-5)),
        **{f"nonconvexity.{name}": ({"n_points": 1, "p_min": "positive", "p_max": "positive"},
                                    dict(cfg=cfg, ues=ues, n_points=3, p_min=1e-3, p_max=1.0))
           for name in ("scan_grid", "find_indefinite_point")},
        "nonconvexity.reference_two_user_setup": ({}, {}),
        "nonconvexity.probes_to_csv": ({}, dict(probes=[], path="probes.csv")),
        "linklevel.analytic_sdr_db": ({"ibo_db": "real", "m_antennas": 1, "n_users": 1},
                                      dict(ibo_db=4.0, m_antennas=64, n_users=4, precoder="zf")),
        "linklevel.simulate_sdr": ({}, dict(cfg=None)),
        "linklevel.write_sdr_csv": ({}, dict(points=[], path="sdr.csv")),
    }


# the values each kind rejects besides NaN
_REJECTED = {
    "positive": [math.inf, -math.inf, True, 0.0],
    "nonnegative": [math.inf, -math.inf, True, -1.0],
    "fractions": [math.inf, -math.inf, True, -1.0],
    "backoff": [-math.inf, True, -1.0],
    "real": [math.inf, -math.inf, True],
}


def _bad_values(valid, kind):
    """NaN and every value ``kind`` rejects, in the shape of ``valid``: in
    place of an array's (or a list's) last entry."""
    values = [math.nan, *(_REJECTED[kind] if isinstance(kind, str) else [math.inf, True, kind + 1.5, kind - 1])]
    if isinstance(valid, np.ndarray):
        return [np.array([*valid[:-1], v], dtype=bool if v is True else None) for v in values]
    if isinstance(valid, (list, tuple)):
        return [type(valid)([*valid[:-1], v]) for v in values]
    return values


def _takes_a_number(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return bool(value) and all(_takes_a_number(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _public_callables():
    import importlib
    import inspect

    for module_name in (*_MODEL_MODULES, "linklevel"):
        module = importlib.import_module(f"dapalloc.{module_name}")
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name)):
                yield f"{module_name}.{name}", getattr(module, name)


def test_the_argument_table_covers_every_public_function():
    # a function added to a model module's __all__ must join the table
    # (with every number it takes) or the exempt list, with a reason
    import inspect

    table = _model_setup()
    missed = []
    for name, fn in _public_callables():
        if name in _NOT_NUMBER_TAKERS:
            continue
        if name not in table:
            missed.append(name)
            continue
        kinds, valid = table[name]
        params = {p for p in inspect.signature(fn).parameters if not p.startswith("_")}
        numbers = {p for p, value in valid.items() if _takes_a_number(value)}
        if set(valid) != params or numbers != set(kinds):
            missed.append(f"{name}: {sorted(params)} vs {sorted(valid)}, numbers {sorted(numbers)}")
    assert missed == []
    assert not set(table) - {name for name, _ in _public_callables()}


def _argument_cases():
    import importlib

    for name, (kinds, valid) in _model_setup().items():
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"dapalloc.{module}"), function)
        for arg, kind in kinds.items():
            for bad in _bad_values(valid[arg], kind):
                yield pytest.param(fn, {**valid, arg: bad}, arg, id=f"{name}-{arg}={bad!r}")


@pytest.mark.parametrize("fn, kwargs, arg", _argument_cases())
def test_every_number_argument_is_checked_by_name(fn, kwargs, arg):
    # NaN, an infinity, a bool, a fractional count or a value below the
    # kind fails with a message that starts with the argument's name
    with pytest.raises(ValueError) as caught:
        fn(**kwargs)
    assert str(caught.value).startswith(f"{arg} "), str(caught.value)


def test_the_idle_backoff_is_a_valid_argument():
    # +inf is the back-off of the idle transmitter, P = 0
    from dapalloc.pa_model import bussgang_gain_soft, distortion_coeff_soft

    assert bussgang_gain_soft(math.inf) == 1.0
    assert distortion_coeff_soft(math.inf) == 0.0
    assert bussgang_gain_soft(np.array([0.0, math.inf])).tolist() == [0.0, 1.0]


def test_fractions_of_the_wrong_length_fail_by_one_message():
    # three users' fractions for a two-user set: sindr and evaluate said
    # "allocation size does not match the user set", solve_dapa "omega
    # length must match the user set", and sum_rate_derivative raised
    # numpy's IndexError
    from dapalloc.dapa import solve_dapa, sum_rate_derivative
    from dapalloc.metrics import Allocation, evaluate, operating_point_at, sindr

    kwargs = _model_setup()["metrics.sindr"][1]
    cfg, ues = kwargs["cfg"], kwargs["ues"]
    three = np.full(3, 1 / 3)
    calls = [
        lambda: sindr(cfg, ues, Allocation(0.5, three), operating_point_at(cfg, 0.5)),
        lambda: evaluate(cfg, ues, Allocation(0.5, three)),
        lambda: evaluate(cfg, [ues, ues], [Allocation(0.5, np.full(2, 0.5)), Allocation(0.5, three)]),
        lambda: solve_dapa(ues, three, cfg),
        lambda: sum_rate_derivative(0.3, ues, three, cfg),
        lambda: sum_rate_derivative(np.full((1, 3), 0.3), [ues], [three], cfg),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^omega length must match the user set$"):
            call()
