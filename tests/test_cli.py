"""Tests for the ``horseshoe`` console script."""

import json

import pytest

from horseshoe import cli
from horseshoe.coding import atoms
from horseshoe.induced import calibrate_certificate
from horseshoe.map_core import REF_STRICT


def _run(capsys, argv):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    assert err.startswith("elapsed_s ")
    assert float(err.split()[1]) >= 0.0
    return status, json.loads(out)


def test_validate_prints_report(capsys):
    status, doc = _run(capsys, ["validate", "--params", "strict"])
    assert status == 0
    assert doc["verdict"] == "valid"
    assert all(check["pass"] for check in doc["checks"])
    status, doc = _run(capsys, ["validate"])
    assert status == 0 and doc["verdict"] == "valid-with-warnings"


def test_calibrate_prints_certificate(capsys):
    status, doc = _run(capsys, ["calibrate", "--params", "strict",
                                "--budget", "6", "--seed", "3"])
    assert status == 0
    cert = calibrate_certificate(REF_STRICT, 6, 3)
    assert doc == json.loads(cert.to_json())
    assert doc["C0"]["provenance"] == "estimated"


def test_atoms_prints_counts(capsys):
    status, doc = _run(capsys, ["atoms", "--params", "strict",
                                "--level", "1"])
    assert status == 0
    level = atoms(REF_STRICT, 1)
    assert doc == {"level": 1, "words": 27, "empty_words": 0,
                   "boxes": sum(len(a.boxes) for a in level.values())}
    assert doc["boxes"] > 27


@pytest.mark.parametrize("level", ["4", "-1"])
def test_atoms_rejects_an_infeasible_level(capsys, level):
    with pytest.raises(SystemExit):
        cli.main(["atoms", "--params", "strict", "--level", level])
    assert "--level" in capsys.readouterr().err


def test_rejects_unknown_parameter_set(capsys):
    with pytest.raises(SystemExit):
        cli.main(["validate", "--params", "other"])
