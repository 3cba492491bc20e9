"""Result records are NamedTuples and render as JSON objects.

A dataclass exec-compiles its generated methods when its module is
imported, so only the value classes that need ``__post_init__`` or a
``cached_property`` are dataclasses; every other result record is a
``typing.NamedTuple``.
"""
import importlib
import inspect
import json
import pkgutil

import qharm
from qharm import (
    QLattice,
    QParams,
    bochner_reconstruct,
    fourier_transform,
    qv_membership_probe,
    report_to_json,
    run_suite,
)
from qharm.positivity import BochnerLevel, BochnerReport
from qharm.operators import QvProbeReport
from qharm.testfunctions import gaussian_density
from qharm.verify import VerificationEntry, VerificationSuiteResult

VALUE_CLASSES = {"QParams", "QLattice", "LatticeFunction", "QMeasure", "TransformTable"}


def test_only_value_classes_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(qharm.__path__):
        module = importlib.import_module(f"qharm.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and hasattr(obj, "__dataclass_fields__")
            ):
                found.add(name)
    assert found == VALUE_CLASSES


def _object_keyed_by_fields(rendered, record_type):
    assert isinstance(rendered, dict)
    assert set(rendered) == set(record_type._fields)


def test_reports_render_as_json_objects(table05):
    probe = qv_membership_probe(QParams(0.5), QLattice(0.5, -3, 4))
    assert isinstance(probe, QvProbeReport)
    _object_keyed_by_fields(json.loads(report_to_json(probe)), QvProbeReport)

    phi = fourier_transform(gaussian_density(table05, width_exp=1), table05)
    bochner = bochner_reconstruct(phi, range(1, 4), table05)
    rendered = json.loads(report_to_json(bochner))
    _object_keyed_by_fields(rendered, BochnerReport)
    assert len(rendered["levels"]) == 3
    for level in rendered["levels"]:
        _object_keyed_by_fields(level, BochnerLevel)

    suite = run_suite(QParams(0.5), QLattice(0.5, -20, 60), only=["Prop2"])
    rendered = json.loads(report_to_json(suite))
    _object_keyed_by_fields(rendered, VerificationSuiteResult)
    assert len(rendered["entries"]) == len(suite.entries)
    for entry in rendered["entries"]:
        _object_keyed_by_fields(entry, VerificationEntry)
