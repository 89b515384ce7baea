"""Tests for the serve protocol, error hierarchy and deprecation surface."""

import json
import warnings

import pytest

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

    def test_deprecated_names_still_importable(self):
        assert repro.serve.ScheduleRequest is Request
        assert "TimedOutRequest" in repro.serve.__all__


class TestDeprecatedAliases:
    @pytest.fixture(autouse=True)
    def _reset_warned(self, monkeypatch):
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "_WARNED_ALIASES", set())

    def test_alias_warns_exactly_once(self, config):
        """The one-shot warning: first call warns, the rest stay quiet."""
        with SchedulingService() as service:
            with pytest.warns(DeprecationWarning, match="schedule_many"):
                service.schedule_many([("resnet34", config)])
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                service.schedule_many([("resnet34", config)])  # silent now

    @pytest.mark.parametrize(
        "alias", ["schedule_many", "schedule_all", "schedule_suite", "compare_many"]
    )
    def test_each_alias_warns_with_migration_pointer(self, alias, config):
        with SchedulingService() as service:
            with pytest.warns(DeprecationWarning, match="serve-api-migration"):
                if alias == "schedule_suite":
                    service.schedule_suite("transformers", config)
                elif alias == "compare_many":
                    service.compare_many([("resnet34", config)])
                else:
                    getattr(service, alias)([("resnet34", config)])

    def test_new_api_never_warns(self, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with SchedulingService() as service:
                service.submit(Request(model="resnet34", config=config))
                service.submit_many([("resnet34", config)])
                service.compare([("resnet34", config)])
