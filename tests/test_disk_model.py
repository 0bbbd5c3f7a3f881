"""Disk service-time model vs Table II, plus device/state-machine tests."""

import pytest

from repro.disk import (
    ConnectionType,
    DiskModel,
    DiskOfflineError,
    DiskPowerState,
    DiskStateError,
    IoRequest,
    SimulatedDisk,
    SpinStateMachine,
    TOSHIBA_POWER_SATA,
    TOSHIBA_POWER_USB,
)
from repro.sim import Simulator
from repro.workload import KB, MB, TABLE2_WORKLOADS, AccessPattern, WorkloadSpec

# Table II of the paper, columns in TABLE2_WORKLOADS order:
# 4KB Seq (IO/s) R/50/W, 4KB Rand (IO/s) R/50/W,
# 4MB Seq (MB/s) R/50/W, 4MB Rand (MB/s) R/50/W.
TABLE2 = {
    ConnectionType.SATA: [
        13378, 8066, 11211, 191.9, 105.4, 86.9,
        184.8, 105.7, 180.2, 129.1, 78.7, 57.5,
    ],
    ConnectionType.USB: [
        5380, 4294, 6166, 189.0, 105.2, 85.2,
        185.8, 119.7, 184.0, 147.9, 95.5, 79.3,
    ],
    ConnectionType.HUB_AND_SWITCH: [
        5381, 4595, 6181, 189.2, 106.0, 87.9,
        185.8, 118.6, 184.9, 147.7, 97.7, 79.9,
    ],
}

#: The model is calibrated from the SATA/USB rows; the worst cell (H&S
#: 4KB-S-50%, where the paper's hub-and-switch measurement anomalously
#: *exceeds* plain USB) sits at -11%.
TOLERANCE = 0.12


class TestTable2Calibration:
    @pytest.mark.parametrize("connection", list(TABLE2))
    def test_all_cells_within_tolerance(self, connection):
        model = DiskModel(connection=connection)
        for spec, expected in zip(TABLE2_WORKLOADS, TABLE2[connection]):
            estimate = model.throughput(spec)
            value = estimate.iops if spec.transfer_size == 4 * KB else estimate.mb_per_second
            error = abs(value - expected) / expected
            assert error <= TOLERANCE, (
                f"{connection.value} {spec.name}: model {value:.1f} "
                f"vs paper {expected} ({error:.1%})"
            )

    def test_sata_faster_than_usb_for_small_sequential(self):
        """§VII-A: direct SATA is ~2x USB on 4KB sequential reads."""
        spec = WorkloadSpec(4 * KB, AccessPattern.SEQUENTIAL, 1.0)
        sata = DiskModel(connection=ConnectionType.SATA).throughput(spec).iops
        usb = DiskModel(connection=ConnectionType.USB).throughput(spec).iops
        assert 1.8 <= sata / usb <= 3.0

    def test_large_transfers_unaffected_by_connection(self):
        """§VII-A: for large I/O the bridge/hub/switch have no impact."""
        spec = WorkloadSpec(4 * MB, AccessPattern.SEQUENTIAL, 1.0)
        rates = [
            DiskModel(connection=c).throughput(spec).mb_per_second
            for c in ConnectionType
        ]
        assert max(rates) - min(rates) < 3.0  # MB/s

    def test_hs_close_to_usb_everywhere(self):
        hs = DiskModel(connection=ConnectionType.HUB_AND_SWITCH)
        usb = DiskModel(connection=ConnectionType.USB)
        for spec in TABLE2_WORKLOADS:
            a = hs.throughput(spec).bytes_per_second
            b = usb.throughput(spec).bytes_per_second
            assert abs(a - b) / b < 0.05

    def test_random_slower_than_sequential(self):
        model = DiskModel(connection=ConnectionType.SATA)
        for size in (4 * KB, 4 * MB):
            seq = model.throughput(WorkloadSpec(size, AccessPattern.SEQUENTIAL, 1.0))
            rand = model.throughput(WorkloadSpec(size, AccessPattern.RANDOM, 1.0))
            assert rand.bytes_per_second < seq.bytes_per_second

    def test_mix_penalty_zero_for_pure(self):
        model = DiskModel()
        assert model.mix_penalty(WorkloadSpec(4 * KB, AccessPattern.SEQUENTIAL, 1.0)) == 0
        assert model.mix_penalty(WorkloadSpec(4 * KB, AccessPattern.SEQUENTIAL, 0.0)) == 0

    def test_mix_penalty_maximal_at_half(self):
        model = DiskModel()
        penalties = [
            model.mix_penalty(WorkloadSpec(4 * MB, AccessPattern.SEQUENTIAL, p))
            for p in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert penalties[2] == max(penalties)

    def test_service_time_monotone_in_size(self):
        model = DiskModel()
        sizes = [4 * KB, 64 * KB, 1 * MB, 4 * MB]
        times = [
            model.service_time(WorkloadSpec(s, AccessPattern.SEQUENTIAL, 1.0))
            for s in sizes
        ]
        assert times == sorted(times)


class TestWorkloadSpec:
    def test_name_round_trip(self):
        for spec in TABLE2_WORKLOADS:
            assert WorkloadSpec.parse(spec.name) == spec

    def test_name_format(self):
        assert WorkloadSpec(4 * KB, AccessPattern.SEQUENTIAL, 1.0).name == "4KB-S-R"
        assert WorkloadSpec(4 * MB, AccessPattern.RANDOM, 0.0).name == "4MB-R-W"
        assert WorkloadSpec(4 * MB, AccessPattern.RANDOM, 0.5).name == "4MB-R-50%R"

    def test_invalid_read_fraction(self):
        with pytest.raises(ValueError):
            WorkloadSpec(4 * KB, AccessPattern.RANDOM, 1.5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WorkloadSpec(0, AccessPattern.RANDOM, 1.0)

    def test_grid_has_twelve_cells(self):
        assert len(TABLE2_WORKLOADS) == 12


class TestSpinStateMachine:
    def test_initial_state(self):
        sm = SpinStateMachine()
        assert sm.state is DiskPowerState.IDLE
        assert sm.is_spinning

    def test_legal_cycle(self):
        sm = SpinStateMachine()
        sm.transition(DiskPowerState.SPUN_DOWN)
        sm.transition(DiskPowerState.SPINNING_UP)
        sm.transition(DiskPowerState.IDLE)
        assert sm.spin_up_count == 1
        assert sm.state is DiskPowerState.IDLE

    def test_illegal_transition(self):
        sm = SpinStateMachine()  # IDLE cannot jump straight to SPINNING_UP
        with pytest.raises(DiskStateError):
            sm.transition(DiskPowerState.SPINNING_UP)

    def test_active_cannot_spin_down(self):
        sm = SpinStateMachine()
        sm.transition(DiskPowerState.ACTIVE)
        with pytest.raises(DiskStateError):
            sm.transition(DiskPowerState.SPUN_DOWN)

    def test_power_off_from_spun_down(self):
        sm = SpinStateMachine()
        sm.transition(DiskPowerState.SPUN_DOWN)
        sm.transition(DiskPowerState.POWERED_OFF)
        assert not sm.is_spinning

    def test_same_state_is_noop(self):
        sm = SpinStateMachine()
        sm.transition(DiskPowerState.IDLE)
        assert sm.spin_up_count == 0


class TestSimulatedDisk:
    def make_disk(self):
        sim = Simulator()
        return sim, SimulatedDisk(sim, "d0")

    def test_io_takes_model_time(self):
        sim, disk = self.make_disk()
        done = disk.submit(IoRequest(offset=0, size=4 * MB, is_read=True))
        service = sim.run_until_event(done)
        expected = disk.model.service_time(
            WorkloadSpec(4 * MB, AccessPattern.SEQUENTIAL, 1.0)
        )
        assert service == pytest.approx(expected)
        assert sim.now == pytest.approx(expected)

    def test_sequential_detection(self):
        sim, disk = self.make_disk()
        first = disk.submit(IoRequest(offset=0, size=1 * MB, is_read=True))
        sim.run_until_event(first)
        t0 = sim.now
        nxt = disk.submit(IoRequest(offset=1 * MB, size=1 * MB, is_read=True))
        sim.run_until_event(nxt)
        seq_time = sim.now - t0
        t1 = sim.now
        jump = disk.submit(IoRequest(offset=100 * MB, size=1 * MB, is_read=True))
        sim.run_until_event(jump)
        rand_time = sim.now - t1
        assert rand_time > seq_time

    def test_queue_serializes(self):
        sim, disk = self.make_disk()
        a = disk.submit(IoRequest(offset=0, size=4 * MB, is_read=True))
        b = disk.submit(IoRequest(offset=4 * MB, size=4 * MB, is_read=True))
        sim.run_until_event(sim.all_of([a, b]))
        single = disk.model.service_time(WorkloadSpec(4 * MB, AccessPattern.SEQUENTIAL, 1.0))
        assert sim.now == pytest.approx(2 * single)

    def test_failed_disk_rejects_io(self):
        sim, disk = self.make_disk()
        disk.fail()
        done = disk.submit(IoRequest(offset=0, size=4 * KB, is_read=True))
        with pytest.raises(DiskOfflineError):
            sim.run_until_event(done)

    def test_failure_mid_transfer_leaves_active(self):
        """A disk that fails mid-service must not stay ACTIVE: it would be
        billed active watts for the whole failure and never spin down."""
        sim, disk = self.make_disk()
        request = IoRequest(offset=0, size=256 * MB, is_read=True)
        service = disk.model.service_time(disk._spec_for(request))
        done = disk.submit(request)
        sim.defer(service / 2, disk.fail)
        with pytest.raises(DiskOfflineError):
            sim.run_until_event(done)
        assert disk.power_state is DiskPowerState.IDLE
        assert disk.busy_owner is None
        sim.run(until=sim.now + 100.0)
        assert disk.residency(DiskPowerState.ACTIVE) == pytest.approx(service)
        disk.spin_down()
        assert disk.power_state is DiskPowerState.SPUN_DOWN

    def test_powered_off_rejects_io(self):
        sim, disk = self.make_disk()
        disk.spin_down()
        disk.power_off()
        done = disk.submit(IoRequest(offset=0, size=4 * KB, is_read=True))
        with pytest.raises(DiskOfflineError):
            sim.run_until_event(done)

    def test_spun_down_disk_wakes_for_io(self):
        sim, disk = self.make_disk()
        disk.spin_down()
        assert disk.power_state is DiskPowerState.SPUN_DOWN
        done = disk.submit(IoRequest(offset=0, size=4 * KB, is_read=True))
        sim.run_until_event(done)
        assert sim.now >= disk.spec.spin_up_time
        assert disk.power_state is DiskPowerState.IDLE
        assert disk.states.spin_up_count == 1

    def test_ready_at_names_the_end_of_the_spin_up(self):
        sim, disk = self.make_disk()
        assert disk.ready_at() is None  # IDLE
        disk.spin_down()
        sim.run(until=2.0)
        # A queued I/O would start the spin-up now.
        assert disk.ready_at() == 2.0 + disk.spec.spin_up_time
        done = disk.spin_up()
        sim.run(until=5.0)
        assert disk.ready_at() == 2.0 + disk.spec.spin_up_time
        sim.run_until_event(done)
        assert sim.now == 2.0 + disk.spec.spin_up_time
        assert disk.ready_at() is None
        disk.spin_down()
        disk.power_off()
        assert disk.ready_at() is None  # an I/O fails at once

    def test_spin_up_during_a_spin_up_joins_it(self):
        # Regression: a second spin-up request raised DiskBusyError, so
        # a service's spin_up call failed while an I/O woke the disk.
        sim, disk = self.make_disk()
        disk.spin_down()
        starts = []
        disk.add_spin_up_listener(lambda disk_id, now, blame: starts.append(now))
        first = disk.spin_up()
        sim.run(until=1.0)
        owner = disk.spinup_owner
        second = disk.spin_up()
        assert second is first
        assert starts == [0.0]
        assert disk.spinup_owner == owner
        sim.run_until_event(second)
        assert sim.now == disk.spec.spin_up_time
        assert disk.states.spin_up_count == 1
        assert disk.spin_up() is not first  # spinning: a fresh, fired event

    def test_io_waits_for_someone_elses_spin_up_exactly(self):
        # The I/O joins the spin-up in progress instead of polling for
        # its end, so it reaches the media the instant the disk is ready.
        sim, disk = self.make_disk()
        disk.spin_down()
        disk.spin_up()
        sim.run(until=1.0)
        request = IoRequest(offset=0, size=4 * KB, is_read=True)
        service = disk.model.service_time(disk._spec_for(request))
        sim.run_until_event(disk.submit(request))
        assert sim.now == disk.spec.spin_up_time + service
        assert disk.states.spin_up_count == 1

    def test_io_counters(self):
        sim, disk = self.make_disk()
        sim.run_until_event(disk.submit(IoRequest(offset=0, size=4 * KB, is_read=True)))
        sim.run_until_event(disk.submit(IoRequest(offset=4 * KB, size=8 * KB, is_read=False)))
        assert disk.completed_ios == 2
        assert disk.bytes_read == 4 * KB
        assert disk.bytes_written == 8 * KB

    def test_power_draw_by_state(self):
        sim, disk = self.make_disk()
        assert disk.power_draw(TOSHIBA_POWER_USB) == 5.76
        disk.spin_down()
        assert disk.power_draw(TOSHIBA_POWER_USB) == 1.56
        disk.power_off()
        assert disk.power_draw(TOSHIBA_POWER_USB) == 0.0

    def test_energy_accounting(self):
        sim, disk = self.make_disk()
        sim.run(until=10.0)
        disk.spin_down()
        sim.run(until=20.0)
        # 10 s idle + 10 s spun down under the USB profile.
        expected = 10 * 5.76 + 10 * 1.56
        assert disk.energy_joules(TOSHIBA_POWER_USB) == pytest.approx(expected)

    def test_sata_profile_default(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d", connection=ConnectionType.SATA)
        assert disk.default_power_profile() == TOSHIBA_POWER_SATA

    def test_invalid_io_rejected(self):
        with pytest.raises(ValueError):
            IoRequest(offset=-1, size=4, is_read=True)
        with pytest.raises(ValueError):
            IoRequest(offset=0, size=0, is_read=True)
