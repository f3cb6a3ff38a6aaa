"""The benchmark's span tracer (`bench/tracer.py`) wraps iesgame functions
by module and attribute name. A rename or removal on the program side
would otherwise only show when a traced benchmark run (`--trace 1`)
starts, so every target is resolved here, the way `Tracer.install`
resolves it. The tracer file is only read."""
import importlib
import importlib.util
from pathlib import Path

import pytest

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
