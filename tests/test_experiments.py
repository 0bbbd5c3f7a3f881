"""Tests asserting each paper experiment reproduces the right shape."""

import pytest

from repro.experiments import EXPERIMENTS, ablations, figure6, host_failover
from repro.experiments.reliability import _availability, _scrubbing


def raw(name, **overrides):
    return EXPERIMENTS.get(name).run(**overrides).raw


@pytest.mark.parametrize("name", EXPERIMENTS.names())
def test_every_experiment_holds_its_anchors(name):
    """Each registered experiment, at its declared smoke size (its
    defaults when it declares none), holds every anchor and renders
    its report; ``run`` stamps the declared name, ref and params."""
    experiment = EXPERIMENTS.get(name)
    result = experiment.run(**experiment.smoke)
    assert result.anchors_ok, result.anchors
    assert result.name == name
    assert result.paper_ref == experiment.paper_ref
    assert result.params == {**experiment.params, **experiment.smoke}
    assert len(result.render()) > 50


class TestQuickTables:
    def test_table1_rows_and_claims(self):
        result = raw("table1")
        assert len(result["rows"]) == 5
        assert result["capex_saving_vs_backblaze"] == pytest.approx(0.24, abs=0.03)
        assert result["attex_saving_vs_backblaze"] == pytest.approx(0.55, abs=0.04)

    def test_table2_within_tolerance(self):
        result = raw("table2")
        assert len(result["rows"]) == 36
        assert result["worst_error"] <= 0.12

    def test_table3_measured_matches_profiles(self):
        result = raw("table3")
        sata = result["measured"]["SATA"]
        usb = result["measured"]["USB bridge"]
        assert sata == pytest.approx((0.05, 4.71, 6.66))
        assert usb == pytest.approx((1.56, 5.76, 7.56))

    def test_table4_tight(self):
        result = raw("table4")
        assert result["worst_error"] <= 0.05

    def test_table5_ordering_and_tolerance(self):
        result = raw("table5")
        assert result["ordering_holds"]
        assert result["worst_error"] <= 0.15

    def test_duplex_hits_paper_numbers(self):
        result = raw("duplex")
        assert result["per_port_mb_s"] == pytest.approx(540.0, rel=0.01)
        assert result["aggregate_mb_s"] == pytest.approx(2160.0, rel=0.01)


class TestFigure5:
    def test_series_shapes(self):
        series = raw("figure5")["series_mb_per_s"]
        # Large sequential saturates at the 300 MB/s root port.
        assert series["4MB-S-R"][-1] == pytest.approx(300.0, rel=0.01)
        # Random 4KB is seek-bound and tiny, far from any fabric limit.
        assert series["4KB-R-R"][-1] < 20.0


class TestFigure6:
    def test_part1_grows_with_batch(self):
        small = figure6.run_single(1, seed=1)
        large = figure6.run_single(4, seed=2)
        assert large["part1"] > small["part1"]

    def test_parts_two_three_small(self):
        trial = figure6.run_single(2, seed=3)
        assert trial["part2"] < 2.0
        assert trial["part3"] < 2.0

    def test_total_is_seconds_scale(self):
        trial = figure6.run_single(4, seed=4)
        assert 2.0 < trial["total"] < 10.0


class TestHostFailover:
    def test_single_trial_near_paper(self):
        trial = host_failover.run_single("host1", seed=5)
        assert trial["disks_moved"] == 4
        # Paper: 5.8 s. Same order of magnitude required.
        assert trial["reattach_seconds"] < 12.0
        assert trial["service_resumed_seconds"] < 30.0


class TestReliabilityExperiment:
    def test_estimates_without_full_run(self):
        availability = _availability()
        assert availability["ustore"]["nines"] > availability["single_attached"]["nines"]
        scrubbing = _scrubbing()
        latencies = scrubbing["detection_latency_hours"]
        assert latencies["6h"] < latencies["24h"] < latencies["168h"]


class TestAblations:
    def test_switch_placement_tradeoff(self):
        result = ablations.switch_placement_ablation()
        leaf = result["leaf_switched"]
        upper = result["upper_switched"]
        # The paper's motivation for switching higher: less hardware...
        assert upper["switches"] < leaf["switches"]
        # ...at the price of a bigger blast radius when a hub dies.
        assert upper["worst_hub_blast_radius"] >= leaf["worst_hub_blast_radius"]

    def test_fabric_width_costs_hardware(self):
        result = ablations.fabric_width_ablation()
        assert result["4-way"]["switches"] > result["2-way"]["switches"]
        assert result["4-way"]["hosts_reachable_per_disk"] == 4

    def test_allocation_policy_prevents_sharing(self):
        result = ablations.allocation_policy_ablation(num_services=3, spaces_per_service=4)
        paper = result["paper_rules"]
        random = result["random"]
        assert paper["disks_shared_by_services"] <= random["disks_shared_by_services"]
        assert paper["disks_shared_by_services"] == 0

    def test_adaptive_policy_reduces_spin_ups(self):
        result = ablations.spin_down_policy_ablation(hours=12.0)
        assert result["adaptive"]["spin_ups"] < result["fixed"]["spin_ups"]
        # Both save energy against never spinning down.
        assert result["fixed"]["energy_wh"] < result["always_on_energy_wh"]

    def test_heartbeat_timeout_monotone(self):
        result = ablations.heartbeat_timeout_ablation(timeouts=(1.0, 4.0))
        assert result[1.0]["all_disks_moved"] and result[4.0]["all_disks_moved"]
        assert result[1.0]["recovery_seconds"] < result[4.0]["recovery_seconds"]
