"""The metric catalogue, its name grammar, and BENCHMARK.json."""

import importlib
import json
from pathlib import Path

import pytest

from svcbench import catalogue
from svcbench.spans import Shims, SpanRecorder

_ROOT = Path(__file__).resolve().parents[2]


def _all_names():
    names = [name for name, _ in catalogue.WORKLOADS]
    names += [name for name, _, _, _ in catalogue.END_TO_END]
    names += [name for name, _, _ in catalogue.per_layer_metrics()]
    return names


@pytest.mark.parametrize(
    "name, ok",
    [
        ("setup_s", True),
        ("service.fleet.gateway.self_s", True),
        ("9lives", True),
        ("_leading", False),
        ("has space", False),
        ("x" * 65, False),
        ("", False),
    ],
)
def test_name_grammar(name, ok):
    assert bool(catalogue.NAME_RE.match(name)) is ok


def test_every_name_and_unit_follows_the_grammar_and_is_unique():
    names = _all_names()
    assert len(names) == len(set(names))
    assert all(catalogue.NAME_RE.match(n) for n in names)
    units = list(catalogue.end_to_end_units().values())
    units += list(catalogue.per_layer_units().values())
    assert all(catalogue.UNIT_RE.match(u) for u in units)


def test_catalogue_limits():
    assert 2 <= len(catalogue.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for _, why in catalogue.WORKLOADS)
    assert 1 <= len(catalogue.END_TO_END) <= 16
    assert 1 <= len(catalogue.per_layer_metrics()) <= 128
    bounds = {name: bound for name, _, _, bound in catalogue.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= catalogue.RUN_SECONDS <= 60


def test_benchmark_json_agrees_with_the_catalogue():
    on_disk = json.loads((_ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalogue.benchmark_json()
    assert list(on_disk) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]


def test_span_layers_are_repro_modules_and_every_target_resolves():
    for layer, targets in catalogue.SPAN_LAYERS:
        importlib.import_module(f"repro.{layer}")
        assert targets
    recorder = SpanRecorder([layer for layer, _ in catalogue.SPAN_LAYERS])
    shims = Shims(recorder)
    for index, (_, targets) in enumerate(catalogue.SPAN_LAYERS):
        for target in targets:
            shims.add(target, layer=index)
    with shims:
        pass
