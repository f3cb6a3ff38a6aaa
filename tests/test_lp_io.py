"""Digests of the linear programs handed to the solver.

`conftest.model_digest` hashes a compiled model's names, matrix, bounds,
objective and integrality flags. The pins below hold the digests of the
bench programs: a change to any program, or to its build order, shows
here; a change that alters a program on purpose updates its digest and
says why.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import model_digest
from iesgame import game_model as gm
from iesgame import solve_engine as se
from iesgame.config import load_scenario
from iesgame.model_ir import ModelIR
from iesgame.scenario_cli import build_bundle


def sample_ir():
    ir = ModelIR("sample")
    ir.add_columns(["x"], 0.0, 4.0)
    ir.add_columns(["y"], -1.5, 3.0)
    ir.add_columns(["b"], 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_obj_linear("y", -2.5)
    ir.add_row_list([("cap", {"x": 1.0, "y": 1.0}, "<=", 5.0)])
    ir.add_row_list([("link", {"x": 1.0, "b": -4.0}, ">=", -2.0)])
    ir.add_row_list([("fix", {"y": 2.0}, "==", 1.0)])
    return ir


def _set(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


class TestDigest:
    def test_equal_across_builds(self):
        assert model_digest(sample_ir().compile()) == model_digest(
            sample_ir().compile())

    @pytest.mark.parametrize("edit", ["coefficient", "column bound",
                                      "row bound", "objective constant",
                                      "column name", "integrality"])
    def test_changes_with_any_one_entry(self, edit):
        m = sample_ir().compile()
        a = m.a.copy()
        a.data[2] = math.nextafter(a.data[2], math.inf)  # one ulp
        other = {
            "coefficient": replace(m, a=a),
            "column bound": replace(m, col_upper=_set(m.col_upper, 1, 3.5)),
            "row bound": replace(m, row_upper=_set(m.row_upper, 0, 6.0)),
            "objective constant": replace(m, obj_const=1.0),
            "column name": replace(m, var_names=["x", "z", "b"]),
            "integrality": m.relaxed(),
        }[edit]
        assert model_digest(other) != model_digest(m)


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"

PROGRAM_SHA256 = {
    ("toy3", 1): "baa4efc0f6a2f4def34af36c4301a98e1519168d94f98a7f7cd16e61ef17a1a3",
    ("toy3", 2): "e1b3260a145c80ab76c4237534e656cfe134cf5fa7f8d048a2aa12fb70e7efe8",
    ("toy3", 3): "44d9f9a6f38b1fe77ddcb3f4dfbaed4cc282469702b1a9abf5f689084f6b16bf",
    ("toy3", 4): "776d280dc82c1f0553da3302ce1e0e411fb46b02e929379ab2b330b212b45e9c",
    ("case1_like", 1): "9abc779e9050622e473d50f805744162e94a8688d9570b4bbc09d1f16756a4a8",
    ("case1_like", 2): "25be8254cdea0f2f58cd956cf08300676128c147ea7b26789cf1dfe3a56bc13d",
    ("case1_like", 3): "e0ad2131e996b2fac6536aa7a9e321f8eb0840085d3059590d110b02f940714c",
    ("case1_like", 4): "db760eadd5e4fcdebcc1d5f8fb15ea94b6d8fd98b8a329aac45ee5d8833ef07b",
    ("case2_real", 1): "409b558ed74e36bb027d8e420c98cf977f7cd5bd8286c5314a81e335a794536b",
    ("case2_real", 2): "57233082d9fcc799f4877317034e8108a4896c6840b4e5fafaff58d4309e9017",
    ("case2_real", 3): "6ca86621f49732253b326a09b561620c3eaf59e2c503f507e76511f5fd38aa73",
    ("case2_real", 4): "b2f8fe1b8a56cb9d8dcc9b9ebda14e2e76f943412bf19bf77051b1d03d092eaa",
}

# the zero-price dispatch program (`_dispatch_program`), built at the
# first of three users' responses and moved to each (`_balance_rhs`);
# toy3 has no storage, so relaxing its binaries changes nothing
DISPATCH_SHA256 = {
    ("toy3", False): "2409548d1278f9da16ceb273d9d91339064f5f2e6a2edea254f8c9c653a385d7",
    ("toy3", True): "2409548d1278f9da16ceb273d9d91339064f5f2e6a2edea254f8c9c653a385d7",
    ("case1_like", False): "e8c5d796db9060863e1a93fce779524404d2e90c67b501f32281dc2300757c29",
    ("case1_like", True): "277498070ca3c26ae1bde14d9e25a866818f7fb4b66b199ec6a06de6270d9d90",
    ("case2_real", False): "18e4453c57803695913f455f0bb9ae2d3aba6dde3da0097b4a2e905a9e171ad6",
    ("case2_real", True): "7144031f284565f97aa86a4c577948c4845533396f355738e2b76c14852a5c9e",
}


@pytest.mark.parametrize("case, mode", list(PROGRAM_SHA256))
def test_program_fingerprint(case, mode):
    cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
    digest = model_digest(build_bundle(cfg, mode).ir.compile())
    assert digest == PROGRAM_SHA256[case, mode]


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
    digest = model_digest(*(program.with_rhs(rows, b) for b in rhs))
    assert digest == DISPATCH_SHA256[case, relax_binaries]
