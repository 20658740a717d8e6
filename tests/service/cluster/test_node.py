"""Node-side pieces: PacedRunner, internal RPC routes, shared validation."""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.service import JobSpec
from repro.service.cluster import NodeRpcClient, PacedRunner, RpcError
from repro.service.diskcache import encode_payload
from repro.service.http.protocol import HttpError
from repro.service.http.server import spec_from_payload

from .conftest import TOKEN, MiniCluster, run_async, spec_dict


class TestPacedRunner:
    def test_enforces_floor(self):
        runner = PacedRunner(lambda spec: "done", floor_seconds=0.1)
        started = time.monotonic()
        assert runner(JobSpec(input="portrait", target="sailboat")) == "done"
        assert time.monotonic() - started >= 0.1

    def test_slow_inner_not_padded(self):
        def slow(spec):
            time.sleep(0.05)
            return "slow"

        runner = PacedRunner(slow, floor_seconds=0.01)
        started = time.monotonic()
        runner(JobSpec(input="portrait", target="sailboat"))
        assert time.monotonic() - started < 0.2

    def test_forwards_capabilities_and_context(self):
        class Inner:
            accepts_context = True

            def __call__(self, spec, ctx=None):
                return ("ran", ctx)

        runner = PacedRunner(Inner(), floor_seconds=0.0)
        assert runner.accepts_context
        result, ctx = runner(
            JobSpec(input="portrait", target="sailboat"), "the-ctx"
        )
        assert (result, ctx) == ("ran", "the-ctx")

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            PacedRunner(lambda spec: None, floor_seconds=-1)


class TestInternalRoutes:
    def test_cache_entry_roundtrip_and_miss(self, tmp_path):
        async def scenario():
            async with MiniCluster(nodes=1, cache_root=tmp_path) as cluster:
                node = cluster.nodes[0]
                rpc = NodeRpcClient(
                    "127.0.0.1", node.front.port, token=TOKEN, timeout=5
                )
                assert await cluster.call(rpc.cache_get, "no/such/key") is None

                value = np.arange(12).reshape(3, 4)
                data, layout = encode_payload(value)
                await cluster.call(rpc.cache_put, "step2/sad/abc", data, layout)
                assert node.cluster_cache.local.contains("step2/sad/abc")

                fetched = await cluster.call(rpc.cache_get, "step2/sad/abc")
                assert fetched is not None
                got_data, got_layout = fetched
                from repro.service.diskcache import decode_payload

                np.testing.assert_array_equal(
                    decode_payload(got_data, got_layout), value
                )

        run_async(scenario())

    def test_lease_routes(self, tmp_path):
        async def scenario():
            async with MiniCluster(nodes=1, cache_root=tmp_path) as cluster:
                node = cluster.nodes[0]
                rpc = NodeRpcClient(
                    "127.0.0.1", node.front.port, token=TOKEN, timeout=5
                )
                first = await cluster.call(rpc.lease_acquire, "k/1", "peer-a")
                assert first["state"] == "granted"
                second = await cluster.call(rpc.lease_acquire, "k/1", "peer-b")
                assert second["state"] == "wait"
                # release raises on failure, returns None on success
                await cluster.call(rpc.lease_release, "k/1", "peer-a")
                third = await cluster.call(rpc.lease_acquire, "k/1", "peer-b")
                assert third["state"] == "granted"
                # a key the node already holds answers ready
                node.cluster_cache.local.put("k/ready", np.arange(3))
                ready = await cluster.call(rpc.lease_acquire, "k/ready", "peer-b")
                assert ready["state"] == "ready"

        run_async(scenario())

    def test_internal_routes_require_token(self, tmp_path):
        async def scenario():
            async with MiniCluster(nodes=1, cache_root=tmp_path) as cluster:
                node = cluster.nodes[0]
                bad = NodeRpcClient(
                    "127.0.0.1", node.front.port, token="wrong", timeout=5
                )

                def poke():
                    with pytest.raises(RpcError) as err:
                        bad.cache_get("any/key")
                    return err.value

                err = await cluster.call(poke)
                assert err.status == 401

        run_async(scenario())

    def test_status_route_reports_node_identity(self):
        async def scenario():
            async with MiniCluster(nodes=2) as cluster:
                node = cluster.nodes[0]

                def fetch():
                    req = urllib.request.Request(
                        f"http://127.0.0.1:{node.front.port}/internal/v1/status"
                    )
                    req.add_header("Authorization", f"Bearer {TOKEN}")
                    with urllib.request.urlopen(req, timeout=5) as resp:
                        return json.loads(resp.read())

                status = await cluster.call(fetch)
                assert status["node_id"] == "n0"
                # the coordinator's pushes reached this node's directory
                assert status["membership_version"] >= 1
                assert len(node.directory) == 2

        run_async(scenario())

    def test_membership_push_rejects_stale_version(self):
        async def scenario():
            async with MiniCluster(nodes=1) as cluster:
                node = cluster.nodes[0]
                version = node.directory.version

                def push(v):
                    body = json.dumps(
                        {"version": v, "nodes": {"x": {"host": "h", "port": 1}}}
                    ).encode()
                    req = urllib.request.Request(
                        f"http://127.0.0.1:{node.front.port}/internal/v1/membership",
                        data=body,
                        method="POST",
                        headers={
                            "Authorization": f"Bearer {TOKEN}",
                            "Content-Type": "application/json",
                        },
                    )
                    with urllib.request.urlopen(req, timeout=5) as resp:
                        return json.loads(resp.read())

                stale = await cluster.call(push, version)
                assert stale["accepted"] is False
                fresh = await cluster.call(push, version + 1000)
                assert fresh["accepted"] is True
                assert "x" in node.directory.nodes()

        run_async(scenario())


class TestSpecValidation:
    def test_unknown_field(self):
        with pytest.raises(HttpError) as err:
            spec_from_payload(spec_dict("x", bogus_knob=1))
        assert err.value.status == 400
        assert err.value.code == "unknown_field"
        assert "bogus_knob" in err.value.message

    def test_unknown_kind(self):
        with pytest.raises(HttpError) as err:
            spec_from_payload(spec_dict("x", kind="fresco"))
        assert err.value.status == 400
        assert err.value.code == "unknown_kind"

    def test_invalid_spec_values(self):
        with pytest.raises(HttpError) as err:
            spec_from_payload(spec_dict("x", timeout=-3))
        assert err.value.status == 400
        assert err.value.code == "invalid_spec"

    def test_valid_payload_builds_spec(self):
        spec = spec_from_payload(spec_dict("ok"))
        assert isinstance(spec, JobSpec)
        assert spec.name == "ok"
