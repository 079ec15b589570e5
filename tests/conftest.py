"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.api import compile_source
from repro.interp.interpreter import Interpreter


def run_java(source: str, *, optimize: bool = False, class_name=None,
             method: str = "main", max_steps: int = 5_000_000):
    """Compile and execute a MiniJava++ program; returns ExecutionResult."""
    module = compile_source(source, optimize=optimize)
    interp = Interpreter(module, max_steps=max_steps)
    return interp.run_main(class_name, method)


def stdout_of(source: str, **kwargs) -> str:
    result = run_java(source, **kwargs)
    assert result.exception is None, \
        f"unexpected {result.exception_name()}; stdout so far:\n{result.stdout}"
    return result.stdout


def main_wrap(body: str, extra: str = "") -> str:
    """Wrap statements into a minimal runnable class."""
    return f"class Main {{ {extra}\n static void main() {{\n{body}\n}} }}"


# ----------------------------------------------------------------------
# serving fixtures: one in-process server on an ephemeral port, with a
# deterministic clock so rate windows and manifest timestamps replay
# identically across runs

#: the signing key every serve fixture publishes under
SERVE_TEST_KEY = b"conformance-suite-key"


@pytest.fixture
def serve_stack():
    """(service, server, clock) with quotas generous enough for the
    conformance suite; quota-specific tests build their own stack."""
    from repro.serve import (ManualClock, ServeServer, ServeService,
                             TenantLimits)
    clock = ManualClock()
    service = ServeService(
        signing_key=SERVE_TEST_KEY, clock=clock,
        limits=TenantLimits(requests_per_window=100_000,
                            stored_bytes=256 * 1024 * 1024,
                            compile_seconds=600.0))
    server = ServeServer(service).start()
    try:
        yield service, server, clock
    finally:
        server.stop()


@pytest.fixture
def serve_client(serve_stack):
    """A connected client for the shared in-process server."""
    from repro.serve import ServeClient
    _service, server, _clock = serve_stack
    client = ServeClient("127.0.0.1", server.port, tenant="test")
    try:
        yield client
    finally:
        client.close()  # drain the keep-alive pool before server stop
