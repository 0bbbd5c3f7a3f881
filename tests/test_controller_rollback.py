"""Controller verification-timeout rollback (§IV-C step 3) and misc gaps."""

import pytest

from repro.cluster import DeploymentConfig, build_deployment
from repro.net import RemoteError, RpcClient


class TestControllerRollback:
    def test_rollback_when_expected_connection_never_appears(self):
        """If the new host never detects the switched disk within the
        pre-set time, the Controller turns the switches back and reports
        the situation to the Master (§IV-C)."""
        from repro.cluster import MasterConfig

        config = DeploymentConfig(
            # Keep the Master's failure detector out of this test: it
            # would (correctly) fail the crashed host's own disks over,
            # moving switches unrelated to the rollback under test.
            master=MasterConfig(heartbeat_timeout=10_000.0),
        )
        dep = build_deployment(config=config)
        dep.settle(15.0)
        states_before = {s.node_id: s.state for s in dep.fabric.switches}
        # Sabotage detection: the destination endpoint goes dark, so
        # usb_view polls fail and verification must time out.
        dep.endpoints["host2"].crash()
        rpc = RpcClient(dep.sim, dep.network, "rb-tester")

        def scenario():
            yield from rpc.call(
                "unit0.controller0",
                "controller.execute",
                [("disk0", "host2")],
                timeout=40.0,
            )

        with pytest.raises(RemoteError, match="rolled back"):
            dep.sim.run_until_event(dep.sim.process(scenario()))
        states_after = {s.node_id: s.state for s in dep.fabric.switches}
        assert states_after == states_before
        assert dep.controllers[0].rollbacks == 1
        assert dep.fabric.attached_host("disk0") == "host0"

    def test_disk_usable_after_rollback(self):
        from repro.cluster import MasterConfig

        config = DeploymentConfig(master=MasterConfig(heartbeat_timeout=10_000.0))
        dep = build_deployment(config=config)
        dep.settle(15.0)
        dep.endpoints["host2"].crash()
        rpc = RpcClient(dep.sim, dep.network, "rb-tester")

        def scenario():
            try:
                yield from rpc.call(
                    "unit0.controller0",
                    "controller.execute",
                    [("disk0", "host2")],
                    timeout=40.0,
                )
            except RemoteError:
                pass

        dep.sim.run_until_event(dep.sim.process(scenario()))
        dep.settle(10.0)
        # The disk bounced back to host0's view after the rollback.
        assert "disk0" in dep.bus.os_view("host0")


class TestMiscGaps:
    def test_fabric_subtree_nodes(self):
        from repro.fabric import prototype_fabric

        fabric = prototype_fabric()
        members = fabric.subtree_nodes("port-h0")
        # Host0's subtree carries 4 disks, their bridges/switches, two
        # leaf hubs with switches, and the root hub.
        assert "disk0" in members and "roothub0" in members
        assert "disk4" not in members  # attached to host2

    def test_dual_tree_odd_disk_count(self):
        from repro.fabric import dual_tree_fabric, validate_fabric

        fabric = dual_tree_fabric(num_disks=7, num_hosts=2, fan_in=3)
        assert validate_fabric(fabric).ok

    def test_deployment_host_of_disk_helper(self):
        dep = build_deployment()
        assert dep.host_of_disk("disk0") == "host0"
