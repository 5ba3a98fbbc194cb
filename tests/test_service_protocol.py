"""Property suite for the service wire codec (satellite 1).

The codec's contract (see :mod:`repro.service.protocol`): for any request
``r``, ``from_dict(to_dict(r)) == r``; for any canonical encoding ``d``,
``dumps_canonical(to_dict(from_dict(d))) == dumps_canonical(d)`` — i.e. the
round trip is *byte-stable*, which is what lets the service journal replay
requests bit-for-bit after a daemon restart.  Malformed payloads must never
leak a bare ``KeyError``/``TypeError``: every failure is a
:class:`ProtocolError` naming the offending fields.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boxes import make_instance
from repro.core.kernels import available as available_kernels
from repro.runtime import ManifestEntry
from repro.service.protocol import (
    BatchRequest,
    CertifyRequest,
    ProtocolError,
    SolveRequest,
    dumps_canonical,
    request_from_dict,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_SETTINGS = settings(max_examples=60, deadline=None)

tenants = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-",
    min_size=1,
    max_size=16,
)

widths = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
)


@st.composite
def instances(draw):
    box_widths = draw(st.lists(widths, min_size=1, max_size=4))
    container = draw(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    )
    n = len(box_widths)
    arcs = []
    if n > 1 and draw(st.booleans()):
        pairs = [(a, b) for a in range(n) for b in range(n) if a < b]
        arcs = draw(
            st.lists(st.sampled_from(pairs), max_size=3, unique=True)
        )
    return make_instance(box_widths, container, arcs)


kernels = st.one_of(st.none(), st.sampled_from(available_kernels()))

time_limits = st.one_of(
    st.none(),
    st.floats(min_value=0.001, max_value=3600.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def solve_requests(draw):
    return SolveRequest(
        instance=draw(instances()),
        tenant=draw(tenants),
        kernel=draw(kernels),
        time_limit=draw(time_limits),
        wait=draw(st.booleans()),
    )


@st.composite
def batch_requests(draw):
    count = draw(st.integers(1, 3))
    entries = tuple(
        ManifestEntry(
            instance_id=f"e{i:03d}",
            instance=draw(instances()),
            time_limit=draw(time_limits),
        )
        for i in range(count)
    )
    return BatchRequest(
        entries=entries,
        tenant=draw(tenants),
        kernel=draw(kernels),
        wait=draw(st.booleans()),
    )


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.text(max_size=8),
)


@st.composite
def certify_requests(draw):
    certificate = {"status": draw(st.sampled_from(["sat", "unsat"]))}
    certificate.update(
        draw(
            st.dictionaries(
                st.text(
                    alphabet="abcdefghijklmnop", min_size=1, max_size=6
                ),
                json_scalars,
                max_size=3,
            )
        )
    )
    certificate.setdefault("status", "sat")
    return CertifyRequest(
        certificate=certificate,
        tenant=draw(tenants),
        wait=draw(st.booleans()),
    )


any_request = st.one_of(solve_requests(), batch_requests(), certify_requests())


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @_SETTINGS
    @given(any_request)
    def test_decode_inverts_encode(self, request):
        assert type(request).from_dict(request.to_dict()) == request

    @_SETTINGS
    @given(any_request)
    def test_byte_stable(self, request):
        wire = dumps_canonical(request.to_dict())
        decoded = request_from_dict(json.loads(wire))
        assert dumps_canonical(decoded.to_dict()) == wire

    @_SETTINGS
    @given(any_request)
    def test_dispatch_by_kind(self, request):
        assert isinstance(
            request_from_dict(request.to_dict()), type(request)
        )

    @_SETTINGS
    @given(st.one_of(solve_requests(), batch_requests()))
    def test_vector_kernel_alias_decodes_as_bitmask(self, request):
        # Equal decoded requests run identical solves in the daemon.
        payload = {**request.to_dict(), "kernel": "vector"}
        decoded = type(request).from_dict(payload)
        assert decoded.kernel == "bitmask"
        assert decoded == type(request).from_dict(
            {**payload, "kernel": "bitmask"}
        )

    @_SETTINGS
    @given(solve_requests())
    def test_json_transit_preserves_equality(self, request):
        over_the_wire = json.loads(json.dumps(request.to_dict()))
        assert SolveRequest.from_dict(over_the_wire) == request


# ---------------------------------------------------------------------------
# Malformed payloads: structured errors, never bare exceptions
# ---------------------------------------------------------------------------

_MUTATIONS = [
    lambda d: {**d, "surprise": 1},
    lambda d: {**d, "tenant": ""},
    lambda d: {**d, "tenant": "a" * 65},
    lambda d: {**d, "tenant": 7},
    lambda d: {**d, "tenant": "no spaces allowed"},
    lambda d: {**d, "wait": "yes"},
    lambda d: {**d, "kind": "bogus"},
]

_SOLVE_MUTATIONS = _MUTATIONS + [
    lambda d: {k: v for k, v in d.items() if k != "instance"},
    lambda d: {**d, "instance": 42},
    lambda d: {**d, "instance": {"boxes": "nope"}},
    lambda d: {**d, "kernel": "warp-drive"},
    lambda d: {**d, "time_limit": -1},
    lambda d: {**d, "time_limit": True},
    lambda d: {**d, "time_limit": "fast"},
]


def _assert_structured(payload, decode):
    with pytest.raises(ProtocolError) as excinfo:
        decode(payload)
    details = excinfo.value.errors
    assert details, "ProtocolError must name at least one field"
    for item in details:
        assert isinstance(item["field"], str) and item["field"]
        assert isinstance(item["reason"], str) and item["reason"]
    assert excinfo.value.body()["error"]["status"] == 400


class TestMalformed:
    @_SETTINGS
    @given(solve_requests(), st.integers(0, len(_SOLVE_MUTATIONS) - 1))
    def test_solve_mutations_are_structured_errors(self, request, pick):
        _assert_structured(
            _SOLVE_MUTATIONS[pick](request.to_dict()), SolveRequest.from_dict
        )

    @_SETTINGS
    @given(batch_requests(), st.integers(0, len(_MUTATIONS) - 1))
    def test_batch_mutations_are_structured_errors(self, request, pick):
        _assert_structured(
            _MUTATIONS[pick](request.to_dict()), BatchRequest.from_dict
        )

    def test_batch_rejects_empty_and_duplicate_entries(self):
        base = BatchRequest(
            entries=(
                ManifestEntry("a", make_instance([(1, 1, 1)], (1, 1, 1))),
            )
        ).to_dict()
        _assert_structured(
            {**base, "entries": []}, BatchRequest.from_dict
        )
        _assert_structured(
            {**base, "entries": base["entries"] * 2}, BatchRequest.from_dict
        )
        _assert_structured(
            {**base, "entries": [1, 2]}, BatchRequest.from_dict
        )

    def test_certify_requires_status_string(self):
        base = CertifyRequest(certificate={"status": "sat"}).to_dict()
        _assert_structured(
            {**base, "certificate": {"no": "status"}},
            CertifyRequest.from_dict,
        )
        _assert_structured(
            {**base, "certificate": "nope"}, CertifyRequest.from_dict
        )

    @_SETTINGS
    @given(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=5),
            st.lists(st.integers(), max_size=3),
        )
    )
    def test_non_object_payloads(self, payload):
        _assert_structured(payload, request_from_dict)
        _assert_structured(payload, SolveRequest.from_dict)

    def test_unknown_kind_names_the_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            request_from_dict({"kind": "teleport"})
        assert excinfo.value.errors[0]["field"] == "kind"

    def test_errors_accumulate_instead_of_failing_fast(self):
        with pytest.raises(ProtocolError) as excinfo:
            SolveRequest.from_dict(
                {"tenant": "", "learning": "x", "wait": 3}
            )
        fields = {e["field"] for e in excinfo.value.errors}
        assert {"tenant", "learning", "wait", "instance"} <= fields

    @pytest.mark.parametrize("value", [False, True])
    def test_learning_is_an_unknown_field(self, value):
        # The search no longer learns; a body that still asks either way
        # gets the structured 400, not a silent ignore.
        instance = make_instance([(1, 1, 1)], (1, 1, 1))
        requests = [
            (SolveRequest(instance=instance), SolveRequest.from_dict),
            (
                BatchRequest(entries=(ManifestEntry("a", instance),)),
                BatchRequest.from_dict,
            ),
        ]
        for request, decode in requests:
            with pytest.raises(ProtocolError) as excinfo:
                decode({**request.to_dict(), "learning": value})
            assert excinfo.value.errors == [
                {"field": "learning", "reason": "unknown field"}
            ]
            assert excinfo.value.body()["error"]["status"] == 400
