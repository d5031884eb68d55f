"""Tests for the production extensions: model comparison, defect weights,
classifier persistence, parallel generation and VCD tracing."""

import numpy as np
import pytest

from repro.camodel import generate_ca_model
from repro.camodel.batch import generate_library
from repro.camodel.compare import ComparisonError, LibraryDiff, compare_models
from repro.defects import default_universe
from repro.defects.weights import WeightModel, defect_weights, weighted_coverage
from repro.learning import RandomForestClassifier, accuracy_score
from repro.learning.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_classifier,
    save_classifier,
)
from repro.library import SOI28, build_cell
from repro.service import serve, submit_library
from repro.simulation import CellSimulator, golden_simulator
from repro.simulation.trace import capture, dump_vcd, to_vcd


class TestCompareModels:
    def test_identical_models_perfect(self, nand2_model):
        diff = compare_models(nand2_model, nand2_model)
        assert diff.bit_accuracy == 1.0
        assert diff.escape_rate == 0.0
        assert diff.overkill_rate == 0.0
        assert diff.exact_fraction == 1.0
        assert not diff.lost_defects
        assert diff.pattern_coverage == 1.0

    def test_escapes_counted(self, nand2, nand2_model):
        import copy

        degraded = copy.deepcopy(nand2_model)
        # wipe the first detectable defect's row -> escapes + lost defect
        row = next(
            i for i in range(degraded.n_defects) if degraded.detection[i].any()
        )
        lost_name = degraded.defects[row].name
        degraded.detection[row] = 0
        diff = compare_models(nand2_model, degraded)
        assert diff.escape_rate > 0.0
        assert lost_name in diff.lost_defects
        # patterns chosen for surviving defects may still cover the lost
        # one, so pattern coverage is bounded but not necessarily reduced
        assert diff.pattern_coverage <= 1.0

    def test_pattern_coverage_drops_when_prediction_empty(self, nand2_model):
        import copy

        empty = copy.deepcopy(nand2_model)
        empty.detection = np.zeros_like(empty.detection)
        diff = compare_models(nand2_model, empty)
        assert diff.pattern_coverage == 0.0
        assert diff.escape_rate == 1.0

    def test_overkill_counted(self, nand2_model):
        import copy

        inflated = copy.deepcopy(nand2_model)
        inflated.detection[0] = 1
        diff = compare_models(nand2_model, inflated)
        assert diff.overkill_rate > 0.0
        # overkill cannot cause escapes
        assert diff.escape_rate == 0.0

    def test_shape_mismatch_rejected(self, nand2_model, aoi21_model):
        with pytest.raises(ComparisonError):
            compare_models(nand2_model, aoi21_model)

    def test_library_diff_summary(self, nand2_model):
        lib = LibraryDiff()
        lib.add(compare_models(nand2_model, nand2_model))
        summary = lib.summary()
        assert summary["cells"] == 1
        assert summary["mean_escape_rate"] == 0.0
        assert LibraryDiff().summary() == {}


class TestDefectWeights:
    def test_weights_align_and_normalize(self, nand2):
        universe = default_universe(nand2)
        weights = defect_weights(nand2, universe)
        assert len(weights) == len(universe)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()

    def test_bulk_defects_downweighted(self, nand2):
        universe = default_universe(nand2)
        weights = defect_weights(nand2, universe, normalize=False)
        bulk_open = next(
            i for i, d in enumerate(universe)
            if d.kind == "open" and d.location[1] == "B"
        )
        drain_open = next(
            i for i, d in enumerate(universe)
            if d.kind == "open" and d.location[1] == "D"
            and d.location[0] == universe[bulk_open].location[0]
        )
        assert weights[bulk_open] < weights[drain_open]

    def test_wider_devices_weigh_more(self):
        narrow = build_cell(SOI28, "INV", 1)
        wide = build_cell(SOI28, "INV", 1, SOI28.flavors[1])  # LVT: 1.15x
        wn = defect_weights(narrow, default_universe(narrow), normalize=False)
        ww = defect_weights(wide, default_universe(wide), normalize=False)
        assert ww.sum() > wn.sum()

    def test_weighted_coverage(self, nand2_model, nand2):
        weights = defect_weights(nand2, nand2_model.defects)
        full = weighted_coverage(nand2_model.detection, weights)
        assert 0.0 < full < 1.0
        none = weighted_coverage(nand2_model.detection, weights, stimulus_subset=[])
        assert none == 0.0

    def test_weighted_vs_raw_coverage_differ(self, nand2_model, nand2):
        weights = defect_weights(nand2, nand2_model.defects)
        weighted = weighted_coverage(nand2_model.detection, weights)
        raw = nand2_model.coverage()
        assert weighted != pytest.approx(raw, abs=1e-6)

    def test_mismatched_lengths_rejected(self, nand2_model):
        with pytest.raises(ValueError):
            weighted_coverage(nand2_model.detection, np.ones(3))


class TestPersistence:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(2000, 12)).astype(np.int8)
        y = ((X[:, 1] > 1) ^ (X[:, 7] == 0)).astype(int)
        forest = RandomForestClassifier(
            n_estimators=5, max_features=0.5, random_state=0
        ).fit(X, y)
        return forest, X, y

    def test_roundtrip_predictions_identical(self, fitted, tmp_path):
        forest, X, y = fitted
        path = save_classifier(forest, tmp_path / "forest.json")
        loaded = load_classifier(path)
        assert (loaded.predict(X) == forest.predict(X)).all()
        assert np.allclose(loaded.predict_proba(X), forest.predict_proba(X))

    def test_dict_roundtrip(self, fitted):
        forest, X, _y = fitted
        clone = forest_from_dict(forest_to_dict(forest))
        assert (clone.predict(X[:50]) == forest.predict(X[:50])).all()

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            forest_to_dict(RandomForestClassifier())

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            forest_from_dict({"kind": "svm"})


class TestBatchGeneration:
    def test_inline_matches_direct(self, nand2):
        inline = generate_library([nand2])
        direct = generate_ca_model(nand2)
        assert (inline[nand2.name].detection == direct.detection).all()

    def test_parallel_matches_inline(self, tmp_path):
        cells = [build_cell(SOI28, fn, 1) for fn in ("INV", "NAND2", "NOR2")]
        inline = generate_library(cells)
        submit_library(cells, run_dir=tmp_path / "run")
        parallel = serve(tmp_path / "run", workers=2).models
        assert set(parallel) == set(inline)
        for name in inline:
            assert (parallel[name].detection == inline[name].detection).all()


class TestTrace:
    def test_capture_states(self, nand2):
        sim = golden_simulator(nand2, SOI28.electrical)
        trace = capture(sim, [(0, 1), (1, 1), (0, 1)])
        assert len(trace) == 3
        assert trace.of("Z") == [1, 0, 1]
        assert trace.changes("Z") == [1, 2]

    def test_vcd_structure(self, nand2):
        sim = golden_simulator(nand2, SOI28.electrical)
        trace = capture(sim, [(0, 1), (1, 1)])
        vcd = to_vcd(trace)
        assert "$enddefinitions $end" in vcd
        assert "$var wire 1" in vcd
        assert "#0" in vcd and "#10" in vcd

    def test_vcd_x_for_floating(self, nand2):
        from repro.simulation import DefectEffect

        bottom = next(
            t for t in nand2.transistors if t.is_nmos and t.source == "VSS"
        )
        sim = CellSimulator(
            nand2, SOI28.electrical, DefectEffect(removed=frozenset({bottom.name}))
        )
        trace = capture(sim, [(1, 1)])
        assert trace.of("Z") == [-1]
        assert "x" in to_vcd(trace)

    def test_dump_vcd(self, nand2, tmp_path):
        sim = golden_simulator(nand2, SOI28.electrical)
        trace = capture(sim, [(0, 0), (1, 1)])
        path = dump_vcd(trace, tmp_path / "t.vcd")
        assert path.exists()
        assert path.read_text().startswith("$comment")
