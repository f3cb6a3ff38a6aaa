"""The benchmark's span tracer (`bench/tracer.py`) wraps iesgame functions
by module and attribute name. A rename or removal on the program side
would otherwise only show when a traced benchmark run (`--trace 1`)
starts, so every target is resolved here, the way `Tracer.install`
resolves it. The tracer keeps one span stack for all threads, so every
target must also run on the thread that called into the program. The
tracer file is only read."""
import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from iesgame import scenario_cli as cli
from iesgame import solve_engine as se

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer_module()


@pytest.mark.parametrize("mod_name, attr_path", tracer.TARGETS,
                         ids=[f"{m}.{a}" for m, a in tracer.TARGETS])
def test_target_resolves(mod_name, attr_path):
    module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
    if "." in attr_path:
        cls_name, meth = attr_path.split(".")
        assert callable(vars(getattr(module, cls_name))[meth])
    else:
        assert callable(getattr(module, attr_path))


def test_no_target_runs_off_the_calling_thread(monkeypatch, tmp_path):
    # each target is wrapped where `Tracer.install` wraps it, to record the
    # threads that run it; the Monte Carlo draws made ahead are recorded too
    threads = {}

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items() if m is not None and (
        n == tracer.PACKAGE or n.startswith(tracer.PACKAGE + "."))]
    for mod_name, attr_path in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        name = f"{mod_name}.{attr_path}"
        if "." in attr_path:
            cls_name, meth = attr_path.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, meth, recording(name, vars(cls)[meth]))
            continue
        original = getattr(module, attr_path)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, recording(name, original))
    monkeypatch.setattr(se, "reserve_draws",
                        recording("draws", se.reserve_draws))

    scenario = str(Path(__file__).resolve().parents[1] / "bench" / "inputs"
                   / "case2_real.json")
    out = cli.run_pipeline(cli.RunManifest(scenario=scenario, mode=3,
                                           out_dir=str(tmp_path), seed=1))
    assert out.exit_code == cli.EXIT_OK
    report, _ = cli.revalidate(scenario, str(tmp_path), se.MC_SAMPLES, 2)
    assert report.passed
    caller = threading.get_ident()
    assert caller not in threads.pop("draws")
    assert {"scenario_cli.run_pipeline", "scenario_cli.revalidate",
            "prob_sequences.chance_satisfaction_mc"} <= set(threads)
    assert {name: ids for name, ids in threads.items()
            if ids != {caller}} == {}
