import hashlib
from pathlib import Path

import numpy as np
import pytest

from iesgame import game_model as gm
from iesgame import solve_engine as se
from iesgame.config import load_scenario
from iesgame.kkt_reformulation import apply_pwl
from iesgame.lp_io import write_lp
from iesgame.model_ir import ModelIR
from iesgame.scenario_cli import build_bundle


def sample_ir():
    ir = ModelIR("sample", "max")
    ir.add_columns(["x"], 0.0, 4.0)
    ir.add_columns(["y"], -1.5, 3.0)
    ir.add_columns(["b"], 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_obj_linear("y", -2.5)
    ir.add_row_list([("cap", {"x": 1.0, "y": 1.0}, "<=", 5.0)])
    ir.add_row_list([("link", {"x": 1.0, "b": -4.0}, ">=", -2.0)])
    ir.add_row_list([("fix", {"y": 2.0}, "==", 1.0)])
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
        ir.add_obj_quad("x", -1.0)
        apply_pwl(ir, 2)
        text = write_lp(ir)
        assert " obj: 1 x - 2.5 y - 2 pwl_d_0_x_0 - 6 pwl_d_0_x_1\n" in text
        assert " pwl_link_0_x: 1 pwl_d_0_x_0 + 1 pwl_d_0_x_1 - 1 x = 0" in text

    def test_objective_constant_in_header(self):
        # a secant whose first value is not zero (y starts at -1.5) leaves
        # that value as a constant, which the header states because obj:
        # cannot hold it
        ir = sample_ir()
        ir.add_obj_quad("y", -1.0)
        apply_pwl(ir, 2)
        text = write_lp(ir)
        assert text.startswith("\\ sample  (objective constant -2.25: the "
                               "offset that obj: leaves out)\nMaximize\n")
        assert " obj: 1 x - 2.5 y + 0.75 pwl_d_0_y_0 - 3.75 pwl_d_0_y_1\n" in text
        assert " pwl_link_0_y: 1 pwl_d_0_y_0 + 1 pwl_d_0_y_1 - 1 y = 1.5" in text
        assert " 0 <= pwl_d_0_y_1 <= 2.25" in text

    def test_min_sense(self):
        ir = ModelIR("m", "min")
        ir.add_columns(["x"], 0.0, 1.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row_list([("r", {"x": 1.0}, ">=", 0.5)])
        assert "Minimize" in write_lp(ir)



# sha256 of the LP text of the bench programs. A change to any program,
# to its build order or to the writer shows here; a change that alters a
# program on purpose updates its hash and says why.
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
CASES = ("toy3", "case1_like", "case2_real")

PROGRAM_SHA256 = {
    ("toy3", 1): "2d9d30828ac56f3b27eb49c764dd2ffcef00fbe3ccff5b00f1f1a16fa6043088",
    ("toy3", 2): "060b481c8102898540ded6acf6db11515f4ed9630d6b480e163664ca9097014e",
    ("toy3", 3): "df8753384d273e04008ed5e1c696c36deeed112d3e34c79ea20532be7482c057",
    ("toy3", 4): "d678078a33e430f8213996817fb698402dcd988b3aeabb626eb25ea791ce5d04",
    ("case1_like", 1): "4ba862e179a21d634feb1a411eff5c719dbf0a9415d0a206eda25d055f0c4520",
    ("case1_like", 2): "dc79d089105a6b17cc24d17072c378027bc2027c0696d3cd76e50d9e19658a33",
    ("case1_like", 3): "d1b7e3b73ee0658f621e1d6ff0e4a8c6b68d500bdd6f56b839e94c9740064963",
    ("case1_like", 4): "9cbb76c3e043fc96665a7aef719b6fb208d8def9c8728d32337197c06539c666",
    ("case2_real", 1): "a7754b8fde29f6c8772b81f174f6ba1fd0d43cbf91dfc0497ffe5bb61334c6ca",
    ("case2_real", 2): "2a720d3654f683548abf32402b6f468b777b0be30e50f1ee201c0990be2faab1",
    ("case2_real", 3): "7f516120ca6242d90a0bb6ca650345053ff64b0af72d12c76ed502fa587cf6d3",
    ("case2_real", 4): "1b33d3798563eac85333b8121693134629c42f53981c9bc5b56573b12b2007a7",
}

# the zero-price dispatch program (`_dispatch_program`), built at the
# first of three users' responses and moved to each (`_balance_rhs`);
# toy3 has no storage, so relaxing its binaries changes nothing
DISPATCH_SHA256 = {
    ("toy3", False): "9a9521461701815ce633971a49615033563e1da95280685cc3f84e267f8bbe98",
    ("toy3", True): "9a9521461701815ce633971a49615033563e1da95280685cc3f84e267f8bbe98",
    ("case1_like", False): "a43738b2f3d2ed1a579b538e068bf60cb4033b2457b908276651906c063b2cab",
    ("case1_like", True): "80343e10efe97974c4506915787ea6c863d9113662eb1d00e8e66474b8d4c44e",
    ("case2_real", False): "60821336398786f6f8e40c3a2a7e56de195205b2d163b638480392307ca87cf8",
    ("case2_real", True): "c72b76a41f266566c59e2c02327b0b5c1ad4d4ffc97452acf2d4bfb88aef471f",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case, mode", list(PROGRAM_SHA256))
def test_program_fingerprint(case, mode):
    cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
    text = write_lp(build_bundle(cfg, mode).ir)
    assert _sha256(text) == PROGRAM_SHA256[case, mode]


@pytest.mark.parametrize("case, relax_binaries", list(DISPATCH_SHA256))
def test_dispatch_fingerprint(case, relax_binaries):
    cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
    mu, gamma = cfg.proportional_prices()
    responses = [gm.follower_best_response(mu, gamma, cfg),
                 (cfg.baseline_shift(), np.zeros(cfg.horizon)),
                 gm.follower_best_response(mu[::-1].copy(), gamma[::-1].copy(), cfg)]
    program = se._dispatch_program(cfg, bool(cfg.pipelines), 8, relax_binaries,
                                   responses[0])
    rows, rhs = se._balance_rhs(program, cfg, *zip(*responses))
    text = "".join(write_lp(program.with_rhs(rows, b)) for b in rhs)
    assert _sha256(text) == DISPATCH_SHA256[case, relax_binaries]
