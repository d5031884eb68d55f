"""Shared fixtures: small cells and CA models, built once per session."""

import json

import pytest

from repro.library import SOI28, C28, C40, build_cell
from repro.camodel import generate_ca_model, generate_library
from repro.camodel.io import FORMAT_VERSION
from repro.resilience.runner import canonical_model_dict
from repro.simulation import golden_simulator


@pytest.fixture(scope="session")
def nand2():
    return build_cell(SOI28, "NAND2", 1)


@pytest.fixture(scope="session")
def nor2():
    return build_cell(SOI28, "NOR2", 1)


@pytest.fixture(scope="session")
def aoi21():
    return build_cell(SOI28, "AOI21", 1)


@pytest.fixture(scope="session")
def and2():
    return build_cell(SOI28, "AND2", 1)


@pytest.fixture(scope="session")
def nand2_x2():
    return build_cell(SOI28, "NAND2", 2)


@pytest.fixture(scope="session")
def nand2_c40():
    return build_cell(C40, "NAND2", 1)


@pytest.fixture(scope="session")
def nand2_c28():
    return build_cell(C28, "NAND2", 1)


@pytest.fixture(scope="session")
def nand2_model(nand2):
    return generate_ca_model(nand2, params=SOI28.electrical)


@pytest.fixture(scope="session")
def nor2_model(nor2):
    return generate_ca_model(nor2, params=SOI28.electrical)


@pytest.fixture(scope="session")
def aoi21_model(aoi21):
    return generate_ca_model(aoi21, params=SOI28.electrical)


@pytest.fixture(scope="session")
def nand2_sim(nand2):
    return golden_simulator(nand2, SOI28.electrical)


@pytest.fixture(scope="session")
def reference_library():
    """``reference_library(cells)``: the library JSON bytes a run-dir
    session must assemble, built by the in-process path."""

    def build(cells):
        models = generate_library(cells)
        return json.dumps(
            {
                "format": FORMAT_VERSION,
                "models": [canonical_model_dict(models[c.name]) for c in cells],
            }
        ).encode()

    return build
