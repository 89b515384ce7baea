"""Tests for the serve protocol, error hierarchy and public surface."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve
from repro.core.config import ArrayFlexConfig
from repro.nn.gemm_mapping import GemmShape
from repro.nn.models import resnet34
from repro.serve import (
    PROTOCOL_VERSION,
    AdmissionRejected,
    InvalidRequest,
    RateLimited,
    Request,
    RequestTimeout,
    Response,
    SchedulingService,
    ServeError,
    request_from_wire,
    request_to_wire,
    response_to_wire,
)
from repro.serve.protocol import config_from_wire, config_to_wire, result_to_wire


@pytest.fixture(scope="module")
def config():
    return ArrayFlexConfig.paper_128x128()


class TestKeywordOnlyConstructors:
    """Protocol constructors are keyword-only: versioned shapes must not
    re-mean positional call sites when fields are added."""

    def test_request_rejects_positional_arguments(self, config):
        with pytest.raises(TypeError):
            Request(resnet34(), config)

    def test_response_rejects_positional_arguments(self):
        with pytest.raises(TypeError):
            Response("ok", "ResNet-34")

    def test_keyword_construction_works(self, config):
        request = Request(model="resnet34", config=config, totals_only=True)
        assert request.totals_only is True
        response = Response(status="ok", model_name="x")
        assert response.ok


class TestRequestValidation:
    def test_nonpositive_timeout_rejected(self, config):
        with pytest.raises(InvalidRequest):
            Request(model="resnet34", config=config, timeout=0)

    def test_non_config_rejected(self):
        with pytest.raises(InvalidRequest):
            Request(model="resnet34", config={"rows": 128})

    def test_bad_response_status_rejected(self):
        with pytest.raises(InvalidRequest):
            Response(status="maybe", model_name="x")

    def test_paired_produces_both_sides(self, config):
        flex, conv = Request(model="resnet34", config=config).paired()
        assert flex.conventional is False
        assert conv.conventional is True


class TestWireCodecs:
    def test_registry_name_round_trips(self, config):
        request = Request(
            model="resnet34", config=config, totals_only=True, timeout=2.5
        )
        decoded = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert decoded == request

    def test_gemm_list_round_trips(self, config):
        gemms = (GemmShape(m=64, n=576, t=3136, name="conv1"),)
        request = Request(model=gemms, config=config)
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.model == gemms

    def test_model_name_label_round_trips(self, config):
        gemms = (GemmShape(m=64, n=576, t=3136, name="conv1"),)
        request = Request(model=gemms, config=config, model_name="my-net")
        decoded = request_from_wire(request_to_wire(request))
        assert decoded == request
        assert decoded.model_name == "my-net"

    def test_config_round_trips(self):
        config = ArrayFlexConfig(
            rows=64, cols=32, supported_depths=(1, 2), activity_model="utilization"
        )
        decoded = config_from_wire(config_to_wire(config))
        assert decoded.rows == 64 and decoded.cols == 32
        assert decoded.supported_depths == (1, 2)
        assert decoded.activity_model.name == "utilization"

    def test_workload_object_has_no_wire_identity(self, config):
        with pytest.raises(InvalidRequest):
            request_to_wire(Request(model=resnet34(), config=config))

    @pytest.mark.parametrize(
        "payload",
        [
            42,
            {"model": "resnet34"},  # missing version
            {"v": 2, "model": "resnet34"},  # wrong version
            {"v": 1},  # missing model
            {"v": 1, "model": ""},
            {"v": 1, "model": "resnet34", "converntional": True},  # typo field
            {"v": 1, "model": "resnet34", "conventional": "yes"},
            {"v": 1, "model": "resnet34", "timeout": "fast"},
            {"v": 1, "model": "resnet34", "model_name": 7},
            {"v": 1, "model": [[64, 576]]},  # short GEMM entry
            {"v": 1, "model": [[64, 0, 9]]},  # illegal dimension
            {"v": 1, "model": "resnet34", "config": {"rows": 128, "colz": 4}},
        ],
    )
    def test_malformed_wire_requests_rejected(self, payload):
        with pytest.raises(InvalidRequest):
            request_from_wire(payload)

    def test_result_floats_survive_json_bit_exactly(self, config):
        """JSON round-trips the aggregate floats exactly — the basis of
        the daemon's bit-identical parity with direct library calls."""
        with SchedulingService() as service:
            response = service.submit(Request(model="resnet34", config=config))
        wire = json.loads(json.dumps(response_to_wire(response)))
        schedule = response.unwrap()
        assert wire["result"]["time_ns"] == schedule.total_time_ns
        assert wire["result"]["energy_nj"] == schedule.total_energy_nj
        assert wire["result"]["average_power_mw"] == schedule.average_power_mw
        assert wire["result"]["kind"] == "schedule"
        assert wire["result"]["depth_histogram"] == {
            str(depth): count
            for depth, count in schedule.depth_histogram().items()
        }

    def test_totals_result_to_wire(self, config):
        with SchedulingService() as service:
            response = service.submit(
                Request(model="resnet34", config=config, totals_only=True)
            )
        wire = result_to_wire(response.unwrap())
        assert wire["kind"] == "totals"
        assert wire["time_ns"] == response.unwrap().time_ns
        # The legacy wire shape stays exactly as it was.
        assert set(wire) == {
            "kind",
            "time_ns",
            "energy_nj",
            "average_power_mw",
            "energy_delay_product",
        }

    def test_timeout_response_to_wire(self):
        wire = response_to_wire(
            Response(status="timeout", model_name="x", timeout_s=0.5, cancelled=True)
        )
        assert wire["status"] == "timeout"
        assert wire["result"] is None
        assert wire["timeout_s"] == 0.5 and wire["cancelled"] is True


#: A valid wire body, and every field a fuzzed client may replace.
_VALID_BODY = {
    "v": 1,
    "model": [[64, 64, 64, "g"]],
    "config": {"rows": 16, "cols": 16, "depths": [1, 2, 4], "activity_model": "constant"},
    "conventional": False,
    "totals_only": True,
    "model_name": None,
    "timeout": 30,
}
_FIELDS = (
    *[(key,) for key in _VALID_BODY],
    *[("config", key) for key in _VALID_BODY["config"]],
    *[("model", 0, index) for index in range(4)],
)
_EDGES = st.sampled_from(
    [
        float("inf"),  # json.loads accepts Infinity, -Infinity and NaN
        float("-inf"),
        float("nan"),
        0,
        -1,
        2**26,
        2**60,
        2**63,
        10**30,
        10**400,
        1e30,
        "",
        "nope",
        "nope@bsX",
        "resnet34@bs0",
        "resnet34@bs99999999999999999999",
    ]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(min_value=2**62, max_value=2**80).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.text(max_size=12)
)
_JSON_VALUES = _EDGES | st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def fuzzed_service():
    with SchedulingService(max_workers=2) as service:
        yield service


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
def test_any_field_replacement_is_a_response_or_invalid_request(
    fuzzed_service, field, value
):
    """Whatever JSON value a client puts in one field of a valid body,
    decoding and serving it gives a Response or an InvalidRequest (HTTP
    400), never another exception (HTTP 500)."""
    body = json.loads(json.dumps(_VALID_BODY))
    target = body
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    body = json.loads(json.dumps(body))  # as the daemon receives it
    try:
        response = fuzzed_service.submit(request_from_wire(body))
    except InvalidRequest:
        return
    assert isinstance(response, Response)


class TestErrorHierarchy:
    """Each serve error carries a distinct wire code, HTTP status and CLI
    exit code (the satellite's triple identity)."""

    ERRORS = (InvalidRequest, AdmissionRejected, RateLimited, RequestTimeout)

    def test_every_error_is_a_serve_error(self):
        for cls in self.ERRORS:
            assert issubclass(cls, ServeError)

    def test_statuses_and_exit_codes_are_distinct(self):
        assert len({cls.http_status for cls in self.ERRORS}) == len(self.ERRORS)
        assert len({cls.exit_code for cls in self.ERRORS}) == len(self.ERRORS)
        assert len({cls.code for cls in self.ERRORS}) == len(self.ERRORS)

    def test_documented_mapping(self):
        assert (InvalidRequest.http_status, InvalidRequest.exit_code) == (400, 2)
        assert (AdmissionRejected.http_status, AdmissionRejected.exit_code) == (429, 3)
        assert (RateLimited.http_status, RateLimited.exit_code) == (503, 4)
        assert (RequestTimeout.http_status, RequestTimeout.exit_code) == (504, 5)

    def test_invalid_request_is_a_value_error(self):
        """Pre-daemon call sites catching ValueError keep working."""
        assert issubclass(InvalidRequest, ValueError)
        with pytest.raises(ValueError):
            raise InvalidRequest("nope")

    def test_retry_after_carried(self):
        assert AdmissionRejected().retry_after_s == 1.0
        assert RateLimited(retry_after_s=2.5).retry_after_s == 2.5
        assert ServeError("boom").retry_after_s is None


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.serve.__all__:
            assert hasattr(repro.serve, name), name

    def test_new_surface_is_exported(self):
        exported = set(repro.serve.__all__)
        assert {
            "PROTOCOL_VERSION",
            "Request",
            "Response",
            "SchedulingService",
            "SchedulerDaemon",
            "DaemonClient",
            "ServeError",
            "InvalidRequest",
            "AdmissionRejected",
            "RateLimited",
            "RequestTimeout",
        } <= exported


def test_new_api_never_warns(config):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with SchedulingService() as service:
            service.submit(Request(model="resnet34", config=config))
            service.submit_many([("resnet34", config)])
            service.compare([("resnet34", config)])
