"""The default batch writes and prints what the golden manifest holds, byte
for byte modulo report metadata, for HERGLOTZ_SEED unset, 7 and 123."""

import json
import math

from herglotz import fixtures

from golden_batch import GOLDEN, environment, first_difference, run_all

GOLDEN_MANIFEST = json.loads(GOLDEN.read_text())


def built_elsewhere() -> str:
    """A note naming the environment the manifest was built in, when it is not
    this one: a difference there is a finding about byte stability."""
    built = {key: GOLDEN_MANIFEST[key] for key in environment()}
    return "" if built == environment() else f"\n(built on {built}, run on {environment()})"


def test_default_batch_matches_the_golden_manifest(tmp_path):
    runs = run_all(tmp_path)
    assert set(runs) == set(GOLDEN_MANIFEST["runs"])
    difference = first_difference(GOLDEN_MANIFEST, runs)
    assert difference is None, difference + built_elsewhere()


def test_a_one_ulp_parameter_change_fails_the_manifest(tmp_path, monkeypatch):
    params = {**fixtures._PARACHUTE_PARAMS}
    params["g"] = math.nextafter(params["g"], math.inf)
    monkeypatch.setattr(fixtures, "_PARACHUTE_PARAMS", params)
    difference = first_difference(GOLDEN_MANIFEST, run_all(tmp_path, seeds=(None,)))
    assert difference is not None
    assert difference.startswith("seed unset: check-inverse_parachute.json"), difference
