"""Tests for the power (Table V) and cost (Table I) models."""

import pytest

from repro.cost import (
    BillOfMaterials,
    cost_table,
    render_cost_table,
    ustore_estimate,
    ustore_savings_vs_backblaze,
)
from repro.fabric import prototype_fabric
from repro.power import dd860_power, pergamum_power, ustore_power


class TestTable5Power:
    def test_ustore_spinning_near_paper(self):
        total = ustore_power(prototype_fabric(), spinning=True).wall_total
        assert total == pytest.approx(166.8, rel=0.10)

    def test_ustore_powered_off_near_paper(self):
        total = ustore_power(prototype_fabric(), spinning=False).wall_total
        assert total == pytest.approx(22.1, rel=0.15)

    def test_pergamum_spinning_near_paper(self):
        assert pergamum_power(spinning=True).wall_total == pytest.approx(193.5, rel=0.10)

    def test_pergamum_powered_off_near_paper(self):
        assert pergamum_power(spinning=False).wall_total == pytest.approx(28.9, rel=0.10)

    def test_dd860_published_values(self):
        assert dd860_power(True) == 222.5
        assert dd860_power(False) == 83.5

    def test_ordering_matches_paper(self):
        """Table V: UStore < Pergamum < DD860 in both states."""
        fabric = prototype_fabric()
        for spinning in (True, False):
            ustore = ustore_power(fabric, spinning).wall_total
            pergamum = pergamum_power(spinning).wall_total
            dd860 = dd860_power(spinning)
            assert ustore < pergamum < dd860

    def test_fabric_gating_saves_most_interconnect_power(self):
        """§VII-C: powered-off fabric drops by ~71% or more."""
        fabric = prototype_fabric()
        on = ustore_power(fabric, spinning=True).interconnect
        off = ustore_power(fabric, spinning=False).interconnect
        assert off < 0.35 * on


class TestBom:
    def test_markup_applies_only_where_asked(self):
        bom = BillOfMaterials("t")
        bom.add("ic", 1.0, 10, markup=True)
        bom.add("chassis", 100.0, 1)
        assert bom.total() == 10 * 1.0 * 2 + 100.0

    def test_negative_rejected(self):
        bom = BillOfMaterials("t")
        with pytest.raises(ValueError):
            bom.add("x", -1.0, 1)

    def test_subtotal(self):
        bom = BillOfMaterials("t")
        bom.add("a", 1.0, 1)
        bom.add("b", 2.0, 1)
        assert bom.subtotal("a") == 1.0

    def test_render_mentions_items(self):
        bom = ustore_estimate().bom
        text = bom.render()
        assert "bridge" in text and "TOTAL" in text


class TestTable1Cost:
    # Table I, thousands of dollars.
    PAPER = {
        "DELL PowerVault MD3260i": (3340, 1525),
        "Sun StorageTek SL150": (1748, None),
        "Pergamum": (756, 415),
        "BACKBLAZE": (598, 257),
        "UStore": (456, 115),
    }

    def test_all_rows_near_paper(self):
        for row in cost_table():
            capex, attex = self.PAPER[row.system]
            assert row.capex_thousands == pytest.approx(capex, rel=0.05), row.system
            if attex is None:
                assert row.attex is None
            else:
                assert row.attex_thousands == pytest.approx(attex, rel=0.05), row.system

    def test_ustore_is_cheapest(self):
        rows = cost_table()
        ustore = [r for r in rows if r.system == "UStore"][0]
        assert ustore.capex == min(r.capex for r in rows)
        others = [r.attex for r in rows if r.attex is not None and r.system != "UStore"]
        assert all(ustore.attex < a for a in others)

    def test_headline_savings(self):
        savings = ustore_savings_vs_backblaze()
        assert savings["capex_saving"] == pytest.approx(0.24, abs=0.03)
        assert savings["attex_saving"] == pytest.approx(0.55, abs=0.04)

    def test_render_has_all_systems(self):
        text = render_cost_table()
        for system in self.PAPER:
            assert system in text


class TestPowerMeter:
    def test_meter_tracks_spin_down(self):
        from repro.cluster import build_deployment
        from repro.power import PowerMeter

        dep = build_deployment()
        dep.settle(15.0)
        meter = PowerMeter(dep)
        spinning = meter.instantaneous_watts()
        for disk in dep.disks.values():
            disk.spin_down()
        spun_down = meter.instantaneous_watts()
        assert spun_down < spinning
        # All 16 disks idle -> spun-down saves (5.76-1.56)*16/0.9 at the wall.
        assert spinning - spun_down == pytest.approx(16 * (5.76 - 1.56) / 0.9, rel=0.01)

    def test_meter_sampling(self):
        from repro.cluster import build_deployment
        from repro.power import PowerMeter

        dep = build_deployment()
        dep.settle(5.0)
        meter = PowerMeter(dep)
        meter.start()
        dep.settle(5.0)
        # The series holds overhead breakpoints only: no flips, one step.
        assert len(meter.series) == 1
        assert meter.energy_joules() > 0
