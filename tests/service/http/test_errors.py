"""Error taxonomy of the HTTP front: typed 400s, not 500s.

Malformed bodies, unknown spec fields, unknown job kinds and invalid
spec values must each come back as a 400 with a machine-readable
``code`` tag in the JSON body — exercised over real loopback sockets
with the stdlib client, which surfaces the tag as
``ServiceClientError.code``.
"""

from __future__ import annotations

import json

import pytest

from repro.service.client import MosaicServiceClient, ServiceClientError

from .conftest import ServedFront, echo_runner, raw_request, run_async, spec_dict


def _submit_expecting_error(payload: dict) -> ServiceClientError:
    async def scenario():
        async with ServedFront(echo_runner) as served:
            client = MosaicServiceClient(served.base_url)
            with pytest.raises(ServiceClientError) as excinfo:
                await served.call(client.submit, payload)
            return excinfo.value

    return run_async(scenario())


class TestSubmitTaxonomy:
    def test_unknown_field(self):
        exc = _submit_expecting_error(spec_dict(tile_sze=8))
        assert exc.status == 400
        assert exc.code == "unknown_field"
        assert "tile_sze" in str(exc)

    def test_unknown_kind(self):
        exc = _submit_expecting_error(spec_dict(kind="collage"))
        assert exc.status == 400
        assert exc.code == "unknown_kind"
        assert "collage" in str(exc)

    def test_invalid_spec_value(self):
        exc = _submit_expecting_error(spec_dict(timeout=-1))
        assert exc.status == 400
        assert exc.code == "invalid_spec"

    def test_invalid_library_knob(self):
        exc = _submit_expecting_error(
            spec_dict(kind="library", top_k=0, thumb_size=16)
        )
        assert exc.status == 400
        assert exc.code == "invalid_spec"
        assert "top_k" in str(exc)

    def test_unknown_backend(self):
        exc = _submit_expecting_error(spec_dict(backend="tpu"))
        assert exc.status == 400
        assert exc.code == "invalid_spec"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_retries", 1.5),
            ("size", "64"),
            ("solver", "nope"),
            ("output", "/tmp/x.png"),
        ],
    )
    def test_spec_that_would_fail_in_a_worker(self, field, value):
        exc = _submit_expecting_error(spec_dict(**{field: value}))
        assert exc.status == 400
        assert exc.code == "invalid_spec"
        assert field in str(exc)

    def test_mistyped_priority(self):
        exc = _submit_expecting_error(spec_dict(priority="x"))
        assert exc.status == 400
        assert exc.code == "invalid_spec"
        assert "priority" in str(exc)

class TestRawBodies:
    def _roundtrip(self, body: bytes) -> tuple[int, dict]:
        async def scenario():
            async with ServedFront(echo_runner) as served:
                request = (
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )
                return await raw_request(served.port, request)

        raw = run_async(scenario())
        head, _, payload = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(payload)

    def test_invalid_json_is_typed_400(self):
        status, body = self._roundtrip(b"{not json")
        assert status == 400
        assert body["code"] == "malformed_body"
        assert "error" in body

    def test_empty_body_is_typed_400(self):
        status, body = self._roundtrip(b"")
        assert status == 400
        assert body["code"] == "malformed_body"

    def test_non_object_body_is_typed_400(self):
        status, body = self._roundtrip(b"[1, 2, 3]")
        assert status == 400
        assert body["code"] == "malformed_body"

    def test_unknown_field_body_shape(self):
        status, body = self._roundtrip(
            json.dumps(spec_dict(bogus_knob=1)).encode()
        )
        assert status == 400
        assert body == {
            "error": "unknown job spec fields: bogus_knob",
            "code": "unknown_field",
        }


class TestUntypedErrorsKeepWorking:
    def test_not_found_has_no_code(self):
        async def scenario():
            async with ServedFront(echo_runner) as served:
                client = MosaicServiceClient(served.base_url)
                with pytest.raises(ServiceClientError) as excinfo:
                    await served.call(client.job, "job-nope")
                return excinfo.value

        exc = run_async(scenario())
        assert exc.status == 404
        assert exc.code is None

    def test_valid_submit_still_accepted(self):
        async def scenario():
            async with ServedFront(echo_runner) as served:
                client = MosaicServiceClient(served.base_url)
                job = await served.call(client.submit, spec_dict(name="ok"))
                assert job["job_id"].startswith("job-")
                events = list(
                    await served.call(
                        lambda: list(client.events(job["job_id"]))
                    )
                )
                assert events[-1]["terminal"]

        run_async(scenario())
