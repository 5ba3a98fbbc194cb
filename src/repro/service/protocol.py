"""The service wire protocol: request dataclasses and their JSON codec.

Every HTTP body the daemon accepts or emits is a plain JSON object with a
canonical dataclass on this side of the wire.  The codec is **total and
byte-stable**: for any request ``r``, ``from_dict(to_dict(r)) == r`` and
``dumps(to_dict(from_dict(d))) == dumps(d)`` whenever ``d`` is a canonical
encoding — so journaled requests replay bit-for-bit after a daemon restart.

Malformed payloads never raise bare ``KeyError``/``TypeError`` into the
server: every validation failure is collected into one
:class:`ProtocolError` whose ``errors`` list names the offending field and
the reason, which the daemon renders as a structured HTTP 400 body::

    {"error": {"code": "bad-request", "status": 400,
               "details": [{"field": "instance", "reason": "..."}]}}

Instance payloads reuse :func:`repro.io.serialize.instance_to_dict`, and
solver results cross the wire via
:func:`repro.io.serialize.opp_result_to_dict` — the same encodings the
batch journal and the archive tooling already speak.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.kernels import (
    UnknownKernelError,
    available as available_kernels,
    resolve as resolve_kernel,
)
from ..core.opp import OPPResult
from ..io.serialize import instance_from_dict, instance_to_dict, opp_result_to_dict
from ..runtime.manifest import ManifestEntry, ManifestError

#: Request kinds the daemon accepts (the ``kind`` discriminator on the wire).
REQUEST_KINDS = ("solve", "batch", "certify")

#: Tenant names: short, filesystem- and header-safe.
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

DEFAULT_TENANT = "public"


class ProtocolError(ValueError):
    """A malformed wire payload, with structured per-field diagnostics."""

    def __init__(self, errors: List[Dict[str, str]]) -> None:
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"{e['field']}: {e['reason']}" for e in self.errors)
            or "malformed payload"
        )

    def body(self) -> Dict[str, Any]:
        """The structured HTTP 400 body for this error."""
        return {
            "error": {
                "code": "bad-request",
                "status": 400,
                "details": self.errors,
            }
        }


class _Errors:
    """Collector that folds every field problem into one ProtocolError."""

    def __init__(self) -> None:
        self.items: List[Dict[str, str]] = []

    def add(self, field_name: str, reason: str) -> None:
        self.items.append({"field": field_name, "reason": reason})

    def raise_if_any(self) -> None:
        if self.items:
            raise ProtocolError(self.items)


def _require_mapping(data: Any) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise ProtocolError(
            [{"field": "$", "reason": f"payload must be a JSON object, got "
              f"{type(data).__name__}"}]
        )
    return data


def _check_fields(
    data: Dict[str, Any], allowed: Tuple[str, ...], errors: _Errors
) -> None:
    for key in data:
        if key not in allowed:
            errors.add(key, "unknown field")


def _tenant(data: Dict[str, Any], errors: _Errors) -> str:
    tenant = data.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        errors.add(
            "tenant",
            "must be a 1-64 character string of letters, digits, '.', '_', '-'",
        )
        return DEFAULT_TENANT
    return tenant


def _bool(data: Dict[str, Any], name: str, default: bool, errors: _Errors) -> bool:
    value = data.get(name, default)
    if not isinstance(value, bool):
        errors.add(name, f"must be a boolean, got {type(value).__name__}")
        return default
    return value


def _time_limit(data: Dict[str, Any], errors: _Errors) -> Optional[float]:
    value = data.get("time_limit")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.add("time_limit", f"must be a number, got {type(value).__name__}")
        return None
    if value <= 0:
        errors.add("time_limit", f"must be positive, got {value}")
        return None
    return value


def _deadline_ms(data: Dict[str, Any], errors: _Errors) -> Optional[int]:
    """The wire deadline: remaining whole milliseconds at send time.

    Relative on the wire because monotonic clocks do not cross hosts; the
    daemon re-anchors it via :meth:`repro.core.deadline.Deadline.from_wire`
    the moment the request is parsed (network latency eats the margin).
    """
    value = data.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        errors.add(
            "deadline_ms", f"must be an integer, got {type(value).__name__}"
        )
        return None
    if value <= 0:
        errors.add("deadline_ms", f"must be positive, got {value}")
        return None
    return value


def _kernel(data: Dict[str, Any], errors: _Errors) -> Optional[str]:
    """The requested kernel, aliases resolved to the registered name."""
    value = data.get("kernel")
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return resolve_kernel(value)
        except UnknownKernelError:
            pass
    errors.add(
        "kernel",
        f"unknown kernel {value!r} (available: "
        f"{', '.join(available_kernels())})",
    )
    return None


def _kind(data: Dict[str, Any], expected: str, errors: _Errors) -> None:
    kind = data.get("kind", expected)
    if kind != expected:
        errors.add("kind", f"expected {expected!r}, got {kind!r}")


@dataclass(frozen=True)
class SolveRequest:
    """One OPP decision over the wire (``POST /v1/solve``)."""

    instance: Any  # a PackingInstance
    tenant: str = DEFAULT_TENANT
    kernel: Optional[str] = None
    time_limit: Optional[float] = None
    deadline_ms: Optional[int] = None
    wait: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "solve",
            "tenant": self.tenant,
            "instance": instance_to_dict(self.instance),
            "kernel": self.kernel,
            "time_limit": self.time_limit,
            "deadline_ms": self.deadline_ms,
            "wait": self.wait,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SolveRequest":
        data = _require_mapping(data)
        errors = _Errors()
        _check_fields(
            data,
            ("kind", "tenant", "instance", "kernel", "time_limit",
             "deadline_ms", "wait"),
            errors,
        )
        _kind(data, "solve", errors)
        tenant = _tenant(data, errors)
        instance = None
        raw_instance = data.get("instance")
        if raw_instance is None:
            errors.add("instance", "required")
        else:
            try:
                instance = instance_from_dict(raw_instance)
            except (KeyError, TypeError, ValueError) as exc:
                errors.add("instance", f"malformed instance encoding: {exc}")
        kernel = _kernel(data, errors)
        time_limit = _time_limit(data, errors)
        deadline_ms = _deadline_ms(data, errors)
        wait = _bool(data, "wait", True, errors)
        errors.raise_if_any()
        return cls(
            instance=instance,
            tenant=tenant,
            kernel=kernel,
            time_limit=time_limit,
            deadline_ms=deadline_ms,
            wait=wait,
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SolveRequest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(dumps_canonical(self.to_dict()))


@dataclass(frozen=True)
class BatchRequest:
    """A manifest of instances to run under the batch runtime
    (``POST /v1/batch``).  Always executed as an asynchronous job — the
    response carries the job id immediately unless ``wait`` is set."""

    entries: Tuple[ManifestEntry, ...]
    tenant: str = DEFAULT_TENANT
    kernel: Optional[str] = None
    deadline_ms: Optional[int] = None
    wait: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "batch",
            "tenant": self.tenant,
            "entries": [e.to_dict() for e in self.entries],
            "kernel": self.kernel,
            "deadline_ms": self.deadline_ms,
            "wait": self.wait,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "BatchRequest":
        data = _require_mapping(data)
        errors = _Errors()
        _check_fields(
            data, ("kind", "tenant", "entries", "kernel", "deadline_ms",
                   "wait"),
            errors,
        )
        _kind(data, "batch", errors)
        tenant = _tenant(data, errors)
        raw_entries = data.get("entries")
        entries: List[ManifestEntry] = []
        if not isinstance(raw_entries, list) or not raw_entries:
            errors.add("entries", "must be a non-empty list of manifest entries")
        else:
            seen = set()
            for i, raw in enumerate(raw_entries):
                try:
                    if not isinstance(raw, dict):
                        raise ManifestError(
                            f"entry must be an object, got {type(raw).__name__}"
                        )
                    entry = ManifestEntry.from_dict(raw, default_id=f"i{i:04d}")
                except (ManifestError, KeyError, TypeError, ValueError) as exc:
                    errors.add(f"entries[{i}]", str(exc))
                    continue
                if entry.instance_id in seen:
                    errors.add(
                        f"entries[{i}]",
                        f"duplicate instance id {entry.instance_id!r}",
                    )
                seen.add(entry.instance_id)
                entries.append(entry)
        kernel = _kernel(data, errors)
        deadline_ms = _deadline_ms(data, errors)
        wait = _bool(data, "wait", False, errors)
        errors.raise_if_any()
        return cls(
            entries=tuple(entries),
            tenant=tenant,
            kernel=kernel,
            deadline_ms=deadline_ms,
            wait=wait,
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, BatchRequest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(dumps_canonical(self.to_dict()))


@dataclass(frozen=True)
class CertifyRequest:
    """A certificate payload to re-audit (``POST /v1/certify``).

    The payload is the certificate encoding produced by
    ``OPPResult.certificate_payload`` and journaled by the batch runtime;
    it is validated structurally here and semantically by
    :func:`repro.certify.certify_payload`."""

    certificate: Dict[str, Any] = field(default_factory=dict)
    tenant: str = DEFAULT_TENANT
    deadline_ms: Optional[int] = None
    wait: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "certify",
            "tenant": self.tenant,
            "certificate": self.certificate,
            "deadline_ms": self.deadline_ms,
            "wait": self.wait,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "CertifyRequest":
        data = _require_mapping(data)
        errors = _Errors()
        _check_fields(
            data, ("kind", "tenant", "certificate", "deadline_ms", "wait"),
            errors,
        )
        _kind(data, "certify", errors)
        tenant = _tenant(data, errors)
        certificate = data.get("certificate")
        if not isinstance(certificate, dict):
            errors.add("certificate", "must be a certificate payload object")
            certificate = {}
        elif not isinstance(certificate.get("status"), str):
            errors.add("certificate", "payload carries no 'status' string")
        deadline_ms = _deadline_ms(data, errors)
        wait = _bool(data, "wait", True, errors)
        errors.raise_if_any()
        return cls(
            certificate=certificate,
            tenant=tenant,
            deadline_ms=deadline_ms,
            wait=wait,
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, CertifyRequest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(dumps_canonical(self.to_dict()))


_REQUEST_TYPES = {
    "solve": SolveRequest,
    "batch": BatchRequest,
    "certify": CertifyRequest,
}


def request_from_dict(data: Any):
    """Decode any wire request by its ``kind`` discriminator."""
    data = _require_mapping(data)
    kind = data.get("kind")
    if kind not in _REQUEST_TYPES:
        raise ProtocolError(
            [{"field": "kind",
              "reason": f"expected one of {', '.join(REQUEST_KINDS)}, "
              f"got {kind!r}"}]
        )
    return _REQUEST_TYPES[kind].from_dict(data)


# ---------------------------------------------------------------------------
# Response encodings
# ---------------------------------------------------------------------------


def solve_answer(result: OPPResult) -> Dict[str, Any]:
    """The canonical *answer projection* of a solve: exactly the fields that
    are a deterministic property of the instance (status, objective value,
    certificate, witness positions) and none of the run-dependent ones
    (wall-clock, node counts, faults).  A solve served over HTTP and a
    direct :func:`repro.solve` on the same instance must agree on this
    projection byte for byte."""
    positions = None
    if result.placement is not None:
        positions = [list(p) for p in result.placement.positions]
    return {
        "status": result.status,
        "value": result.value,
        "certificate": result.certificate,
        "positions": positions,
    }


def solve_response(result: OPPResult, cache_hit: bool) -> Dict[str, Any]:
    """The terminal payload of a solve job: the canonical answer projection
    plus the full result encoding for clients that want the statistics."""
    return {
        "answer": solve_answer(result),
        "cache_hit": cache_hit,
        "result": opp_result_to_dict(result),
    }


def error_body(code: str, status: int, reason: str, **extra: Any) -> Dict[str, Any]:
    """A structured error body (429s, 404s, 500s; 400s come from
    :meth:`ProtocolError.body`)."""
    payload: Dict[str, Any] = {"code": code, "status": status, "reason": reason}
    payload.update(extra)
    return {"error": payload}


def dumps_canonical(obj: Any) -> str:
    """The one canonical JSON encoding used for byte-stability assertions."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
