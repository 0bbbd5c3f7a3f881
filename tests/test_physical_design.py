"""Tests for the §V-A physical design envelope."""

import pytest

from repro.cost.physical import MAX_DISKS_4U, unit_spec
from repro.units import TB


class TestUnitSpec:
    def test_paper_envelope_200tb(self):
        """§V-A: ~50x 4TB disks give ~200TB raw in a 4U unit."""
        spec = unit_spec(num_disks=50, disk_capacity_bytes=4 * TB)
        assert spec.raw_capacity_tb == pytest.approx(200.0)
        assert spec.fits_4u

    def test_paper_envelope_throughput_2_to_3_gb_s(self):
        """§V-A: ~2-3 GB/s aggregated on all 4 ports."""
        spec = unit_spec(num_disks=50, num_hosts=4)
        assert 2.0 <= spec.aggregate_throughput_gb_s <= 3.0

    def test_few_disks_are_disk_limited(self):
        spec = unit_spec(num_disks=4, num_hosts=4)
        # 4 disks cannot saturate 4 duplex ports.
        assert spec.aggregate_throughput_gb_s < 1.0

    def test_oversize_flagged(self):
        spec = unit_spec(num_disks=MAX_DISKS_4U + 10)
        assert not spec.fits_4u

    def test_power_density_reasonable(self):
        """A cold-storage 4U unit draws on the order of 10W or less per
        raw TB while spinning."""
        spec = unit_spec(num_disks=64, disk_capacity_bytes=3 * TB)
        assert 1.0 < spec.watts_per_tb < 10.0

    def test_density_per_rack_unit(self):
        spec = unit_spec(num_disks=64, disk_capacity_bytes=4 * TB)
        assert spec.capacity_per_rack_unit_tb == pytest.approx(64.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            unit_spec(num_disks=0)
