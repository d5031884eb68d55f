"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import _cell_from_name, main
from repro.camodel import generate_ca_model, load_model, load_models, save_models
from repro.library import SOI28, C40, build_cell, get_technology
from repro.spice import write_cell, write_library


@pytest.fixture()
def nand2_file(tmp_path, nand2):
    path = tmp_path / "nand2.sp"
    path.write_text(write_cell(nand2, SOI28.dialect))
    return path


@pytest.fixture()
def training_file(tmp_path):
    cells = [build_cell(SOI28, "NAND2", 1, f) for f in SOI28.flavors]
    models = [generate_ca_model(c, params=SOI28.electrical) for c in cells]
    path = tmp_path / "train.json"
    save_models(models, path)
    return path


class TestCellFromName:
    def test_roundtrip(self):
        tech = get_technology("soi28")
        cell = _cell_from_name(tech, "S28_NAND2X2_LVT")
        assert cell is not None and cell.name == "S28_NAND2X2_LVT"

    def test_std_flavor(self):
        tech = get_technology("c40")
        cell = _cell_from_name(tech, "C40_AOI21X1")
        assert cell is not None and cell.function == "AOI21"

    def test_unknown_function(self):
        tech = get_technology("soi28")
        assert _cell_from_name(tech, "S28_FOOX1") is None


class TestCommands:
    def test_generate(self, nand2_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["generate", str(nand2_file), "-o", str(out)]) == 0
        model = load_model(out)
        assert model.n_defects == 40
        assert "coverage" in capsys.readouterr().out

    def test_rename(self, nand2_file, capsys):
        assert main(["rename", str(nand2_file)]) == 0
        out = capsys.readouterr().out
        assert "signature" in out and "N0" in out

    def test_predict(self, tmp_path, training_file, capsys):
        target = build_cell(C40, "NAND2", 1)
        netlist = tmp_path / "target.sp"
        netlist.write_text(write_cell(target, C40.dialect))
        out = tmp_path / "predicted.json"
        code = main(
            ["predict", str(netlist), "-t", str(training_file), "-o", str(out)]
        )
        assert code == 0
        model = load_model(out)
        assert model.detection.shape[0] == 40
        assert "route=ml" in capsys.readouterr().out

    def test_predict_writes_every_cell(self, tmp_path, training_file, capsys):
        cells = [build_cell(C40, "NAND2", 1), build_cell(C40, "NOR2", 1)]
        netlist = tmp_path / "cells.sp"
        netlist.write_text(write_library(cells, C40.dialect))
        out = tmp_path / "predicted.json"
        code = main(
            ["predict", str(netlist), "-t", str(training_file), "-o", str(out)]
        )
        assert code == 0
        models = load_models(out)
        assert [m.cell_name for m in models] == [c.name for c in cells]
        assert all(m.detection.shape[0] == 40 for m in models)
        printed = capsys.readouterr().out
        assert all(f"{c.name}: match=" in printed for c in cells)
        assert printed.count(f"wrote {out}") == 1

    def test_hybrid(self, tmp_path, training_file, capsys):
        cells = [build_cell(C40, "NAND2", 1), build_cell(C40, "NOR2", 1)]
        netlist = tmp_path / "cells.sp"
        netlist.write_text(write_library(cells, C40.dialect))
        assert main(["hybrid", str(netlist), "-t", str(training_file)]) == 0
        out = capsys.readouterr().out
        assert "total_reduction" in out

    def test_predict_empty_training(self, nand2_file, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        save_models([], empty)
        assert main(["predict", str(nand2_file), "-t", str(empty)]) == 1

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "NAND2" in out and "AOI21" in out

    def test_build(self, capsys):
        assert main(["build", "c28", "NAND2", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert ".SUBCKT C28_NAND2X2" in out

    def test_table(self, capsys):
        assert main(["table", "II"]) == 0
        assert "activity" in capsys.readouterr().out

    def test_table_unknown(self, capsys):
        assert main(["table", "XL"]) == 1
