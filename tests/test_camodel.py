"""Unit tests for stimuli, CA model generation and file IO."""

import numpy as np
import pytest

from repro.camodel import (
    CAModel,
    DYNAMIC,
    STATIC,
    UNDETECTED,
    detect,
    expected_count,
    generate_ca_model,
    is_dynamic_word,
    load_model,
    load_models,
    model_from_dict,
    model_to_dict,
    resolve_policy,
    save_model,
    save_models,
    stimuli,
)
from repro.library import SOI28, build_cell
from repro.logic import V4, parse_word, word_to_string


class TestStimuli:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("policy", ["static", "adjacent", "exhaustive"])
    def test_counts_match_formula(self, n, policy):
        assert len(stimuli(n, policy)) == expected_count(n, policy)

    def test_exhaustive_is_4_to_the_n(self):
        assert expected_count(3, "exhaustive") == 64

    def test_static_first_ascending(self):
        words = stimuli(2, "exhaustive")
        assert [word_to_string(w) for w in words[:4]] == ["00", "01", "10", "11"]

    def test_no_duplicates(self):
        words = stimuli(3, "exhaustive")
        assert len({word_to_string(w) for w in words}) == len(words)

    def test_adjacent_single_transition(self):
        for word in stimuli(3, "adjacent"):
            dynamic = sum(1 for v in word if v.is_dynamic)
            assert dynamic in (0, 1)

    def test_dynamic_words_have_transition(self):
        for word in stimuli(2, "exhaustive")[4:]:
            assert is_dynamic_word(word)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            stimuli(2, "random")
        with pytest.raises(ValueError):
            expected_count(2, "random")

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            stimuli(0)

    def test_resolve_policy(self):
        assert resolve_policy(3, "auto") == "exhaustive"
        assert resolve_policy(6, "auto") == "adjacent"
        assert resolve_policy(6, "exhaustive") == "exhaustive"


class TestDetectRule:
    def test_mismatch_detected(self):
        assert detect(V4.ZERO, V4.ONE) == 1
        assert detect(V4.RISE, V4.ONE) == 1

    def test_match_undetected(self):
        assert detect(V4.FALL, V4.FALL) == 0

    def test_x_never_detects(self):
        assert detect(V4.ONE, V4.X) == 0


class TestGeneration:
    def test_shape_and_metadata(self, nand2, nand2_model):
        assert nand2_model.cell_name == nand2.name
        assert nand2_model.detection.shape == (40, 16)
        assert nand2_model.n_defects == 40
        assert len(nand2_model.golden) == 16
        assert nand2_model.simulation_count > 0

    def test_golden_never_x(self, nand2_model):
        assert all(v.is_known for v in nand2_model.golden)

    def test_defect_types_partition(self, nand2_model):
        counts = nand2_model.type_counts()
        assert counts[STATIC] + counts[DYNAMIC] + counts[UNDETECTED] == 40
        assert counts[STATIC] > 0 and counts[DYNAMIC] > 0

    def test_dynamic_defects_exist(self, nand2_model):
        # stuck-open family: detected only by two-pattern stimuli
        dynamic = [
            d.name
            for d in nand2_model.defects
            if nand2_model.defect_type(d.name) == DYNAMIC
        ]
        assert dynamic

    def test_coverage_between_0_and_1(self, nand2_model):
        assert 0.0 < nand2_model.coverage() < 1.0

    def test_bulk_opens_undetected(self, nand2, nand2_model):
        for d in nand2_model.defects:
            if d.kind == "open" and d.location[1] == "B":
                assert not nand2_model.detection_row(d.name).any()

    def test_policy_static_smaller(self, nand2):
        model = generate_ca_model(nand2, params=SOI28.electrical, policy="static")
        assert model.n_stimuli == 4

    def test_keep_responses(self, nand2):
        model = generate_ca_model(
            nand2, params=SOI28.electrical, policy="static", keep_responses=True
        )
        assert model.responses is not None
        assert len(model.responses) == model.n_defects

    def test_delay_detection_adds_detections(self):
        cell = build_cell(SOI28, "INV", 2)
        with_delay = generate_ca_model(cell, params=SOI28.electrical)
        without = generate_ca_model(
            cell, params=SOI28.electrical, delay_detection=False
        )
        assert with_delay.detection.sum() > without.detection.sum()

    def test_progress_callback(self, nand2):
        seen = []
        generate_ca_model(
            nand2,
            params=SOI28.electrical,
            policy="static",
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (40, 40)

    def test_summary_keys(self, nand2_model):
        summary = nand2_model.summary()
        for key in ("cell", "defects", "coverage", "equivalence_classes"):
            assert key in summary

    def test_detection_row_unknown_defect(self, nand2_model):
        with pytest.raises(KeyError):
            nand2_model.detection_row("D999")

    def test_determinism(self, nand2):
        a = generate_ca_model(nand2, params=SOI28.electrical)
        b = generate_ca_model(nand2, params=SOI28.electrical)
        assert (a.detection == b.detection).all()
        assert a.golden == b.golden


class TestIO:
    def test_roundtrip(self, nand2_model, tmp_path):
        path = save_model(nand2_model, tmp_path / "m.json")
        back = load_model(path)
        assert back.cell_name == nand2_model.cell_name
        assert (back.detection == nand2_model.detection).all()
        assert back.stimuli == nand2_model.stimuli
        assert back.golden == nand2_model.golden
        assert [d.location for d in back.defects] == [
            d.location for d in nand2_model.defects
        ]

    def test_library_roundtrip(self, nand2_model, nor2_model, tmp_path):
        path = save_models([nand2_model, nor2_model], tmp_path / "lib.json")
        back = load_models(path)
        assert [m.cell_name for m in back] == [
            nand2_model.cell_name,
            nor2_model.cell_name,
        ]

    def test_dict_version_check(self, nand2_model):
        data = model_to_dict(nand2_model)
        data["format"] = 99
        with pytest.raises(ValueError):
            model_from_dict(data)

    def test_detection_value_outside_01_is_rejected(self, nand2_model):
        # One flipped byte ('0' -> '2') in a saved model must not load.
        data = model_to_dict(nand2_model)
        row = data["detection"][3]
        col = row.index("0")
        data["detection"][3] = row[:col] + "2" + row[col + 1 :]
        with pytest.raises(ValueError, match=r"detection row 3"):
            model_from_dict(data)

    def test_ragged_detection_row_is_rejected(self, nand2_model):
        data = model_to_dict(nand2_model)
        data["detection"][7] = data["detection"][7][:-1]
        with pytest.raises(ValueError, match=r"detection row 7"):
            model_from_dict(data)

    def test_model_validation(self, nand2_model):
        with pytest.raises(ValueError):
            CAModel(
                cell_name="x",
                technology="",
                inputs=("A",),
                output="Z",
                stimuli=list(nand2_model.stimuli),
                golden=list(nand2_model.golden),
                defects=list(nand2_model.defects),
                detection=np.zeros((1, 1), dtype=np.int8),
            )
