"""Tests for the netlist-based static timing analysis."""

import pytest
from hypothesis import given, strategies as st

from repro.timing.delay_model import DelayModel
from repro.timing.sta import PipelineBlockNetlist, StaticTimingAnalyzer
from repro.timing.technology import TechnologyModel


@pytest.fixture(scope="module")
def netlist4():
    return PipelineBlockNetlist(kmax=4)


@pytest.fixture(scope="module")
def analyzer4(netlist4):
    return StaticTimingAnalyzer(netlist4)


class TestNetlistStructure:
    def test_node_count_scales_with_kmax(self):
        small = PipelineBlockNetlist(kmax=2)
        large = PipelineBlockNetlist(kmax=4)
        assert len(large.graph) > len(small.graph)

    def test_contains_expected_cells(self, netlist4):
        cells = {cell.kind for cell in netlist4.graph.values()}
        assert cells == {"ff", "mux", "mul", "csa", "add"}

    def test_acyclic(self, netlist4):
        """Every fan-in precedes its node, so the build order is a
        topological order and one pass over it finds the longest path."""
        position = {node: index for index, node in enumerate(netlist4.graph)}
        for node, cell in netlist4.graph.items():
            for driver in cell.fanin:
                assert position[driver] < position[node], (driver, node)

    def test_invalid_kmax(self):
        with pytest.raises(ValueError):
            PipelineBlockNetlist(kmax=0)

    def test_paths_beyond_configured_depth_exist(self, netlist4):
        assert netlist4.combinational_paths_exist_beyond(2)
        assert not netlist4.combinational_paths_exist_beyond(4)


class TestCriticalPath:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_eq5(self, analyzer4, k):
        """The STA longest path equals the closed-form Eq. (5)."""
        expected = DelayModel(analyzer4.technology).clock_period_ps(k)
        assert analyzer4.minimum_clock_period_ps(k) == pytest.approx(expected)

    def test_path_ends_at_capture_ff(self, analyzer4):
        path = analyzer4.critical_path(2)
        assert path.nodes[-1].endswith("capture_ff")
        assert path.nodes[0] == "launch_ff"

    def test_path_visits_one_multiplier(self, analyzer4):
        path = analyzer4.critical_path(3)
        muls = [n for n in path.nodes if n.endswith("/mul")]
        assert len(muls) == 1

    def test_path_visits_k_csas(self, analyzer4):
        for k in (1, 2, 4):
            path = analyzer4.critical_path(k)
            csas = [n for n in path.nodes if n.endswith("/csa")]
            assert len(csas) == k

    def test_depth_outside_range_rejected(self, analyzer4):
        with pytest.raises(ValueError):
            analyzer4.critical_path(0)
        with pytest.raises(ValueError):
            analyzer4.critical_path(5)

    def test_num_cells_excludes_ffs(self, analyzer4):
        path = analyzer4.critical_path(1)
        assert path.num_cells == len(path.nodes) - 2

    @given(st.integers(1, 6), st.data())
    def test_eq5_agreement_random_technologies(self, kmax, data):
        """Eq. (5) and STA agree for arbitrary (positive) cell delays."""
        tech = TechnologyModel.from_overrides(
            d_mul_ps=data.draw(st.floats(50, 800)),
            d_add_ps=data.draw(st.floats(20, 400)),
            d_csa_ps=data.draw(st.floats(5, 100)),
            d_mux_ps=data.draw(st.floats(2, 60)),
            d_ff_ps=data.draw(st.floats(10, 120)),
        )
        analyzer = StaticTimingAnalyzer(PipelineBlockNetlist(kmax=kmax, technology=tech))
        delay_model = DelayModel(tech)
        k = data.draw(st.integers(1, kmax))
        assert analyzer.minimum_clock_period_ps(k) == pytest.approx(
            delay_model.clock_period_ps(k)
        )


class TestFalsePaths:
    def test_false_paths_at_shallow_configurations(self, analyzer4):
        """Configuring fewer collapsed stages leaves unused combinational
        edges that must be excluded -- exactly the paper's STA methodology."""
        assert analyzer4.false_path_count(1) > analyzer4.false_path_count(2) > 0
        assert analyzer4.false_path_count(4) == 0

    def test_false_path_count_k1(self, analyzer4):
        # Every inter-PE bypass edge (vertical and horizontal) is false at k = 1.
        assert analyzer4.false_path_count(1) == 2 * (4 - 1)
