"""Structured serving errors: one stable ``SERVE-*`` code per failure
class, registered in :data:`repro.analysis.diagnostics.STABLE_CODES`
exactly like the decoder's ``DEC-*`` codes -- the registry scan in
``tests/test_loader.py`` rejects unregistered raise sites, and the
reachability audit in ``tests/test_serve.py`` pins one fixture per
code.

A :class:`ServeError` crossing the HTTP boundary becomes the stable
JSON error envelope::

    {"error": {"code": "SERVE-...", "message": "...", "detail": {...}}}

with the HTTP status from :data:`HTTP_STATUS`.  ``detail`` is optional
structured context -- for ``SERVE-REJECTED`` it carries the underlying
``DEC-*`` code, so a client can key on the decoder's taxonomy without
parsing prose.
"""

from __future__ import annotations

from typing import Optional

#: SERVE code -> HTTP status the JSON envelope ships under.
HTTP_STATUS: dict[str, int] = {
    "SERVE-RATE": 429,
    "SERVE-QUOTA-BYTES": 413,
    "SERVE-QUOTA-COMPILE": 429,
    "SERVE-NOT-FOUND": 404,
    "SERVE-BAD-REQUEST": 400,
    "SERVE-ENDPOINT": 404,
    "SERVE-COMPILE": 422,
    "SERVE-REJECTED": 422,
    "SERVE-CHAIN": 409,
    "SERVE-SIG": 409,
    "SERVE-INTERNAL": 500,
}


class ServeError(Exception):
    """A serving-layer rejection with a stable machine-readable code."""

    def __init__(self, message: str, code: str,
                 detail: Optional[dict] = None):
        if code not in HTTP_STATUS:
            raise ValueError(f"unregistered serve code {code!r}")
        self.code = code
        self.detail = detail
        super().__init__(f"{message} [{code}]")

    @property
    def message(self) -> str:
        text = str(self)
        suffix = f" [{self.code}]"
        return text[:-len(suffix)] if text.endswith(suffix) else text

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

    def as_payload(self) -> dict:
        """The wire shape of the error envelope's ``error`` member."""
        payload = {"code": self.code, "message": self.message}
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeError":
        """Rebuild the client-side exception from an error envelope."""
        error = payload.get("error", payload)
        return cls(error.get("message", "server error"),
                   error.get("code", "SERVE-BAD-REQUEST"),
                   error.get("detail"))
