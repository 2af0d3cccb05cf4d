"""End-to-end over real sockets: server, client, and the jobs CLI."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.cli import main
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import build_server

from tests.service.conftest import job_payload


@pytest.fixture
def server(tmp_path):
    """A live service on an ephemeral port, torn down after the test."""
    instance, recovery = build_server(
        port=0,
        job_dir=tmp_path / "jobs",
        cache_dir=tmp_path / "cache",
        run_store=tmp_path / "runs",
    )
    assert recovery == {"requeued": [], "interrupted": []}
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.close()
    thread.join(timeout=10.0)


@pytest.fixture
def client(server) -> ServiceClient:
    return ServiceClient(server.url, timeout_s=30.0)


def test_submit_poll_result_roundtrip(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["build"]["package_version"]

    submitted = client.submit(job_payload())
    final = client.wait(submitted["job_id"], timeout_s=120.0)
    assert final["state"] == "succeeded"

    result = client.result(submitted["job_id"])
    assert result["result"]["total_time_ms"] > 0
    assert result["result"]["num_frames"] == 4
    assert [j["job_id"] for j in client.list_jobs()] == [submitted["job_id"]]


def test_validation_errors_surface_through_the_client(client):
    with pytest.raises(ServiceClientError) as info:
        client.submit({"kind": "simulate", "trace": {}})
    assert info.value.status == 422
    assert info.value.field_errors == [
        {
            "field_path": "trace",
            "message": "provide exactly one of 'path' or 'generate'",
        }
    ]


def test_unknown_job_is_a_404_client_error(client):
    with pytest.raises(ServiceClientError) as info:
        client.status("zzzz")
    assert info.value.status == 404


def test_unreachable_server_reports_status_zero():
    lonely = ServiceClient("http://127.0.0.1:9", timeout_s=2.0)
    with pytest.raises(ServiceClientError, match="cannot reach") as info:
        lonely.healthz()
    assert info.value.status == 0


def test_oversized_body_is_rejected_with_413(server, client):
    import urllib.error
    import urllib.request

    blob = b"x" * ((1 << 20) + 1)
    request = urllib.request.Request(
        f"{server.url}/v1/jobs", data=blob, method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=30.0)
    assert info.value.code == 413



def test_body_that_spells_the_old_sentinel_is_not_413(server):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"{server.url}/v1/jobs", data=b"__too_large__", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=30.0)
    assert info.value.code != 413
    assert 400 <= info.value.code < 500


@pytest.mark.parametrize("length", ["abc", "1e3", "-5", "1_000"])
def test_non_integer_content_length_is_a_400_and_closes(server, length):
    host, port = server.server_address[:2]
    request = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {length}\r\n\r\n{{}}"
    ).encode("ascii")
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:  # the server closed the connection
                break
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split()[1] == "400"
    assert "connection: close" in [line.lower() for line in lines[1:]]
    assert "Content-Length" in json.loads(body)["error"]

def test_jobs_cli_against_live_server(server, capsys):
    url = server.url
    rc = main([
        "jobs", "submit", "--url", url,
        "--kind", "simulate", "--generate", "bioshock1_like",
        "--frames", "4", "--seed", "1", "--scale", "0.05",
        "--wait", "--timeout", "120",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "queued" in out
    assert "succeeded" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["result"]["total_time_ms"] > 0

    assert main(["jobs", "list", "--url", url]) == 0
    listing = capsys.readouterr().out
    assert "simulate" in listing and "succeeded" in listing

    job_id = payload["job_id"]
    assert main(["jobs", "status", "--url", url, job_id]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["state"] == "succeeded"


def test_jobs_cli_renders_field_errors(server, capsys):
    rc = main([
        "jobs", "submit", "--url", server.url,
        "--kind", "simulate", "--generate", "bioshock1_like",
        "--frames", "-2",
    ])
    captured = capsys.readouterr()
    assert rc != 0
    assert "frames" in captured.err


def test_metrics_track_service_traffic(client):
    submitted = client.submit(job_payload(seed=11))
    client.wait(submitted["job_id"], timeout_s=120.0)
    counters = {
        (series["name"], tuple(sorted(series["labels"].items()))):
            series["value"]
        for series in client.metrics()["metrics"]["counters"]
    }
    assert counters[("service_jobs_submitted", (("kind", "simulate"),))] == 1
    assert counters[("service_jobs_completed", (("state", "succeeded"),))] == 1
    assert any(name == "service_requests" for name, _ in counters)
