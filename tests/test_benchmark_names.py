"""The benchmark tracer wraps program functions by name; a rename or a
deletion must fail here, not only in the benchmark's own smoke run."""

import importlib

from perfbench.tracer import TRACED


def test_every_traced_name_resolves():
    for prefix, module, attr in TRACED:
        obj = importlib.import_module(f"herglotz.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), prefix
