import pytest

from iesgame.lp_io import write_lp
from iesgame.model_ir import ModelIR, PwlObjTerm


def sample_ir():
    ir = ModelIR("sample", "max")
    ir.add_variable("x", 0.0, 4.0)
    ir.add_variable("y", -1.5, 3.0)
    ir.add_variable("b", 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_obj_linear("y", -2.5)
    ir.add_row("cap", {"x": 1.0, "y": 1.0}, "<=", 5.0)
    ir.add_row("link", {"x": 1.0, "b": -4.0}, ">=", -2.0)
    ir.add_row("fix", {"y": 2.0}, "==", 1.0)
    return ir


class TestWriter:
    def test_structure(self):
        text = write_lp(sample_ir())
        assert text.startswith("\\ sample\nMaximize\n obj: 1 x - 2.5 y\n")
        assert " cap: 1 x + 1 y <= 5" in text
        assert " link: 1 x - 4 b >= -2" in text
        assert " fix: 2 y = 1" in text
        assert " -1.5 <= y <= 3" in text
        assert "Binaries\n b\nEnd" in text

    def test_row_without_bounds_omitted(self):
        # the infeasibility triage frees the reserve rows this way
        m = sample_ir().compile()
        text = write_lp(m.without_lower([m.row_index["link"]]))
        assert "link" not in text and " cap: 1 x + 1 y <= 5" in text

    def test_byte_identical_across_builds(self):
        assert write_lp(sample_ir()) == write_lp(sample_ir())

    def test_quadratic_rejected(self):
        ir = sample_ir()
        ir.add_obj_quad("x", -1.0)
        with pytest.raises(ValueError, match="PWL"):
            write_lp(ir)

    def test_pwl_lowered_automatically(self):
        ir = sample_ir()
        ir.add_obj_pwl(PwlObjTerm("x", (0.0, 2.0, 4.0), (0.0, -4.0, -16.0)))
        text = write_lp(ir)
        assert " obj: 1 x - 2.5 y - 2 pwl_d_0_x_0 - 6 pwl_d_0_x_1\n" in text
        assert " pwl_link_0_x: 1 pwl_d_0_x_0 + 1 pwl_d_0_x_1 - 1 x = 0" in text

    def test_objective_constant_in_header(self):
        # a PWL term whose first value is not zero leaves that value as a
        # constant, which the header states because obj: cannot hold it
        ir = sample_ir()
        ir.add_obj_pwl(PwlObjTerm("x", (0.0, 2.0, 4.0), (-1.5, -5.5, -17.5)))
        text = write_lp(ir)
        assert text.startswith("\\ sample  (objective constant -1.5: the "
                               "offset that obj: leaves out)\nMaximize\n")
        assert " obj: 1 x - 2.5 y - 2 pwl_d_0_x_0 - 6 pwl_d_0_x_1\n" in text

    def test_min_sense(self):
        ir = ModelIR("m", "min")
        ir.add_variable("x", 0.0, 1.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row("r", {"x": 1.0}, ">=", 0.5)
        assert "Minimize" in write_lp(ir)

