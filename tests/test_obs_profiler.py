"""Per-query profiler: span-tree -> cost breakdown, text/HTML rendering."""

import pytest

from repro import obs
from repro.cli import build_sandbox
from repro.obs.profiler import (
    OperatorProfile,
    QueryProfile,
    StepProfile,
    build_profile,
    render_html,
    render_text,
)

JOIN_SQL = "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"


@pytest.fixture(scope="module")
def traced_profile():
    """One sandbox query traced end to end and profiled."""
    tracer = obs.plane().tracer
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        sphere = build_sandbox()
        tracer.clear()
        with tracer.span("repro.profile", query=JOIN_SQL):
            sphere.run(JOIN_SQL)
        root = tracer.last_trace()
    finally:
        tracer.clear()
        if not was_enabled:
            tracer.disable()
    assert root is not None
    return build_profile(root, query=JOIN_SQL)


class TestBuildProfile:
    def test_header_fields(self, traced_profile):
        assert traced_profile.query == JOIN_SQL
        assert traced_profile.location == "hive"
        assert traced_profile.estimated_seconds > 0
        assert traced_profile.observed_seconds > 0
        assert traced_profile.total_wall_seconds > 0

    def test_steps_come_from_run_record(self, traced_profile):
        assert traced_profile.steps
        systems = {step.system for step in traced_profile.steps}
        assert "hive" in systems
        for step in traced_profile.steps:
            assert step.estimated_seconds >= 0
            assert step.delta_seconds == pytest.approx(
                step.observed_seconds - step.estimated_seconds
            )

    def test_operator_estimates(self, traced_profile):
        assert traced_profile.operators
        op = traced_profile.operators[0]
        assert op.system == "hive"
        assert op.operator == "join"
        assert op.approach == "sub_op"
        assert op.estimated_seconds > 0
        assert op.wall_seconds > 0

    def test_subop_breakdown_aggregates_engine_spans(self, traced_profile):
        assert traced_profile.subop_seconds
        # A join on Hive must at least read and build/probe.
        assert any(
            "read" in name for name in traced_profile.subop_seconds
        )
        assert traced_profile.simulated_total > 0

    def test_estimation_wall_components(self, traced_profile):
        assert traced_profile.estimation_wall_seconds > 0
        # The sandbox join estimates via sub-op models: no NN, no remedy.
        assert traced_profile.nn_wall_seconds == 0.0
        assert traced_profile.remedy_wall_seconds == 0.0


class TestStepProfile:
    def test_q_error(self):
        step = StepProfile("s", "hive", estimated_seconds=2.0, observed_seconds=8.0)
        assert step.q_error == 4.0
        inverse = StepProfile("s", "hive", estimated_seconds=8.0, observed_seconds=2.0)
        assert inverse.q_error == 4.0

    def test_q_error_degenerate(self):
        step = StepProfile("s", "hive", estimated_seconds=0.0, observed_seconds=1.0)
        assert step.q_error == 0.0


class TestRenderText:
    def test_contains_all_sections(self, traced_profile):
        text = render_text(traced_profile)
        assert f"query: {JOIN_SQL}" in text
        assert "placement: hive" in text
        assert "placement steps (estimate vs actual)" in text
        assert "operator estimates" in text
        assert "sub-operator breakdown (simulated seconds)" in text
        assert "estimation overhead (wall clock)" in text

    def test_empty_profile_renders(self):
        profile = QueryProfile(
            query="",
            location="",
            estimated_seconds=0.0,
            observed_seconds=0.0,
            total_wall_seconds=0.0,
            estimation_wall_seconds=0.0,
            nn_wall_seconds=0.0,
            remedy_wall_seconds=0.0,
        )
        text = render_text(profile)
        assert "estimation overhead (wall clock)" in text
        assert "placement steps" not in text


class TestRenderHtml:
    def test_self_contained_page(self, traced_profile):
        html = render_html(traced_profile)
        assert html.startswith("<!doctype html>")
        assert "<style>" in html
        # Self-contained: no external assets.
        assert "http://" not in html and "https://" not in html
        assert "sub-op" in html.lower()

    def test_escapes_query_text(self):
        profile = QueryProfile(
            query="SELECT a FROM t WHERE a < 5 AND b > '<script>'",
            location="hive",
            estimated_seconds=1.0,
            observed_seconds=1.0,
            total_wall_seconds=0.1,
            estimation_wall_seconds=0.01,
            nn_wall_seconds=0.0,
            remedy_wall_seconds=0.0,
            operators=(
                OperatorProfile(
                    system="<hive>",
                    operator="join",
                    approach="sub_op",
                    estimated_seconds=1.0,
                    remedy_active=False,
                    wall_seconds=0.01,
                ),
            ),
        )
        html = render_html(profile)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html
        assert "&lt;hive&gt;" in html

