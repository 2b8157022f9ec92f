"""Unit tests for the overhead model and component instrumentation."""

import pytest

from repro.core.instrument import InstrumentedComponent, OverheadModel
from repro.errors import AnalysisError
from repro.lang.ir import EXTERNAL
from repro.lang.message import Message, UidFactory


class TestOverheadModel:
    def test_cost_composition(self):
        model = OverheadModel(per_op_ms=0.1, fixed_ms=0.5, amortization=0.0)
        assert model.cost_ms(ops=10, sampling_rate=0.1) == pytest.approx(0.5 + 1.0)

    def test_amortization_reduces_per_op_cost(self):
        model = OverheadModel(per_op_ms=1.0, fixed_ms=0.0, amortization=0.5)
        low = model.cost_ms(ops=10, sampling_rate=0.05)
        full = model.cost_ms(ops=10, sampling_rate=1.0)
        assert full < low
        assert full == pytest.approx(10 * 1.0 * 0.5)

    def test_zero_ops_zero_fixed(self):
        model = OverheadModel(per_op_ms=1.0, fixed_ms=0.0)
        assert model.cost_ms(0, 0.5) == 0.0

    def test_rate_clamped(self):
        model = OverheadModel(per_op_ms=1.0, fixed_ms=0.0, amortization=1.0)
        assert model.cost_ms(10, 5.0) == pytest.approx(0.0)  # clamped to rate 1


class TestInstrumentedComponent:
    def test_mismatched_analysis_rejected(self, fig4_app, fig4_dca):
        with pytest.raises(AnalysisError):
            InstrumentedComponent(
                fig4_app.components["Comp2"],
                fig4_dca.per_component["Comp1"],
                fig4_app.library,
            )

    def test_overhead_fraction(self, fig4_app, fig4_dca):
        comp = InstrumentedComponent(
            fig4_app.components["Comp1"],
            fig4_dca.per_component["Comp1"],
            fig4_app.library,
            overhead_model=OverheadModel(per_op_ms=2.0, fixed_ms=0.0, amortization=0.0),
        )
        state = comp.new_state()
        msg = Message(UidFactory("c", 0).next_uid(), "msg1", EXTERNAL, "Comp1", {"x": 1})
        outcome = comp.handle(state, msg, UidFactory("h", 1))
        # one tracked write (z) at 2ms over a 20ms base cost
        assert outcome.instrumentation_ms == pytest.approx(2.0)
        assert outcome.base_ms == pytest.approx(20.0)
        assert outcome.overhead_fraction == pytest.approx(0.1)
