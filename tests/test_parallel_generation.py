"""Generation stats, the shared per-cell topology, and the service's
kwargs-forwarding regression (a worker must run the submitted options,
not silent defaults)."""

import pytest

from repro.camodel import generate_ca_model, generate_library
from repro.defects import default_universe
from repro.library import SOI28, ElectricalParams, build_cell
from repro.service import serve, submit_library
from repro.simulation import CellSimulator, CellTopology


class TestGenerationStats:
    def test_stats_account_for_every_defect(self, nand2):
        model = generate_ca_model(nand2, params=SOI28.electrical)
        stats = model.stats
        assert stats is not None
        assert stats.workers == 1
        assert stats.simulated_defects + stats.skipped_defects == model.n_defects
        assert stats.solves > 0
        assert stats.cache_hits > 0
        assert 0.0 < stats.cache_hit_rate < 1.0
        assert stats.total_seconds >= stats.golden_seconds

    def test_stats_survive_serialization(self, nand2):
        from repro.camodel import model_from_dict, model_to_dict

        model = generate_ca_model(nand2, params=SOI28.electrical)
        restored = model_from_dict(model_to_dict(model))
        assert restored.stats is not None
        assert restored.stats.solves == model.stats.solves
        assert restored.stats.workers == model.stats.workers

    def test_summary_includes_generation_block(self, nand2):
        model = generate_ca_model(nand2, params=SOI28.electrical)
        summary = model.summary()
        assert summary["generation"]["solves"] == model.stats.solves


class TestSharedTopology:
    def test_topology_specialization_matches_fresh_graph(self, nand2):
        from repro.logic import parse_word

        topology = CellTopology(nand2, params=SOI28.electrical)
        universe = default_universe(nand2)
        for defect in universe[:10]:
            effect = defect.effect(nand2, SOI28.electrical.short_resistance)
            if effect.benign:
                continue
            shared = CellSimulator(
                nand2, params=SOI28.electrical, effect=effect, topology=topology
            )
            fresh = CellSimulator(nand2, params=SOI28.electrical, effect=effect)
            for text in ("00", "11", "R1", "1F"):
                word = parse_word(text)
                assert shared.output_response(word) is fresh.output_response(word)


def _served(run_dir, cells, **kwargs):
    """Models of a two-worker service run of *cells*."""
    submit_library(cells, run_dir=run_dir, **kwargs)
    return serve(run_dir, workers=2).models


class TestBatchKwargsForwarding:
    """The service must return the same models as the in-process path
    (the dropped-kwargs regression: workers used to run defaults
    silently)."""

    def _cells(self):
        return [build_cell(SOI28, fn, 1) for fn in ("INV", "NAND2", "NOR2")]

    def test_inline_vs_pool_with_non_default_options(self, tmp_path):
        cells = self._cells()
        # Weak shorts + no delay detection change the detection tables, so
        # a worker silently falling back to defaults would be caught.
        params = ElectricalParams(short_resistance=50_000.0)
        inline = generate_library(cells, params=params, delay_detection=False)
        pooled = _served(
            tmp_path / "run", cells, params=params, delay_detection=False
        )
        defaults = generate_library(cells)
        assert set(inline) == set(pooled) == set(defaults)
        changed_any = False
        for name in inline:
            assert inline[name].detection.tobytes() == pooled[name].detection.tobytes()
            if inline[name].detection.tobytes() != defaults[name].detection.tobytes():
                changed_any = True
        assert changed_any, "options were expected to change at least one model"

    def test_universe_forwarded_to_workers(self, nand2, tmp_path):
        universe = default_universe(nand2)[:12]
        inline = generate_library([nand2], universe=universe)
        pooled = _served(tmp_path / "run", [nand2], universe=universe)
        assert inline[nand2.name].n_defects == 12
        assert pooled[nand2.name].n_defects == 12
        assert (
            inline[nand2.name].detection.tobytes()
            == pooled[nand2.name].detection.tobytes()
        )

    def test_duplicate_cell_names_raise(self, nand2, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            generate_library([nand2, nand2])
        with pytest.raises(ValueError, match="duplicate"):
            submit_library([nand2, nand2], run_dir=tmp_path / "run")
