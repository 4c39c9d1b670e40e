"""T1/T2 — the paper's in-text evaluation numbers (§III-D, §IV).

T1: the 4 MiB chunk-time exemplar of §IV-A.
T2: offload micro-costs and figures derived from the sweeps.
"""

import pytest

from repro.bench.experiments.text_tables import PAPER_T1, PAPER_T2
from repro.util.units import KiB


@pytest.fixture(scope="module")
def t1(experiment):
    return experiment("T1")


@pytest.fixture(scope="module")
def t2(experiment):
    return experiment("T2")


def test_t1_regeneration(t1):
    assert len(t1.iso) == 2 and len(t1.hetero) == 2


def test_t2_regeneration(t2):
    assert t2.plateaus_mbps


class TestT1ChunkTimes:
    def test_iso_chunks_are_2mib_each(self, t1):
        assert [c.chunk_bytes for c in t1.iso] == [2048 * KiB, 2048 * KiB]

    def test_iso_myri_chunk_near_1730us(self, t1):
        myri = next(c for c in t1.iso if "myri" in c.rail)
        assert myri.chunk_time_us == pytest.approx(PAPER_T1["iso_myri_chunk_us"], rel=0.03)

    def test_iso_quadrics_chunk_near_2400us(self, t1):
        quad = next(c for c in t1.iso if "quadrics" in c.rail)
        assert quad.chunk_time_us == pytest.approx(PAPER_T1["iso_quad_chunk_us"], rel=0.03)

    def test_iso_idle_gap_near_670us(self, t1):
        assert t1.iso_idle_gap_us == pytest.approx(PAPER_T1["iso_idle_gap_us"], abs=50.0)

    def test_hetero_myri_carries_more(self, t1):
        myri = next(c for c in t1.hetero if "myri" in c.rail)
        quad = next(c for c in t1.hetero if "quadrics" in c.rail)
        assert myri.chunk_bytes > quad.chunk_bytes
        # Paper's exemplar split: 2437 KiB vs 1757 KiB (±6 %).
        assert myri.chunk_bytes == pytest.approx(
            PAPER_T1["hetero_myri_chunk_bytes"], rel=0.06
        )
        assert quad.chunk_bytes == pytest.approx(
            PAPER_T1["hetero_quad_chunk_bytes"], rel=0.06
        )

    def test_hetero_chunk_times_equalized(self, t1):
        """Paper: 1999 µs vs 2001 µs — equal to ~0.1 %."""
        assert t1.hetero_imbalance_us < 5.0
        for c in t1.hetero:
            assert c.chunk_time_us == pytest.approx(2000.0, rel=0.03)

    def test_hetero_beats_iso_completion(self, t1):
        iso_completion = max(c.chunk_time_us for c in t1.iso)
        hetero_completion = max(c.chunk_time_us for c in t1.hetero)
        assert hetero_completion < iso_completion


class TestT2MicroCosts:
    def test_offload_idle_cost_is_3us(self, t2):
        assert t2.offload_idle_us == pytest.approx(PAPER_T2["offload_idle_us"])

    def test_offload_preempt_cost_is_6us(self, t2):
        assert t2.offload_preempt_us == pytest.approx(PAPER_T2["offload_preempt_us"])

    def test_plateaus_present_for_all_series(self, t2):
        assert len(t2.plateaus_mbps) == 4

    def test_fig9_crossover_in_4k_to_8k(self, t2):
        assert 4 * KiB <= t2.fig9_crossover_bytes <= 8 * KiB

    def test_fig9_best_reduction_near_30pct(self, t2):
        assert 25.0 <= t2.fig9_best_reduction_pct <= 42.0

    def test_render(self, t1, t2):
        assert "4 MiB" in t1.render()
        assert "offload" in t2.render()
