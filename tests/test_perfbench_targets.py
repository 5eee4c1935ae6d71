"""The traced benchmark run wraps library functions by name; a rename in
the package must fail here, not only in the benchmark's own suite."""
import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for mod_name in tracer.MODULES:
        importlib.import_module(mod_name)
    for mod_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"
