import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from iesgame.config import scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "iesgame" / "scenarios"

# three-period toy: one thermal unit, one CHP unit, one pipeline, small WT;
# theta sized so the heat-cut response stays interior at these load scales
TOY3 = {
    "name": "toy3",
    "horizon": 3,
    "dt_hours": 1.0,
    "confidence": 0.9,
    "seq_step_mw": 0.02,
    "prices": {"mu_min": 50.0, "mu_max": 87.0, "mu_av": 68.5,
               "gamma_min": 20.0, "gamma_max": 39.0, "gamma_av": 29.5},
    "idr": {"alpha": 0.1, "theta": 150.0, "shift_max_frac": 0.3},
    "tp_units": [
        {"p_min": 0.05, "p_max": 0.5, "ramp_up": 0.175, "ramp_down": 0.175,
         "cost_a": 12.0, "cost_b": 17.82, "cost_c": 10.15, "reserve_cost": 13.7}],
    "chp_units": [
        {"p_min": 0.375, "p_max": 2.0, "h_max": 2.5, "ramp_up": 0.5,
         "ramp_down": 0.5, "cost_a": 4.4, "cost_b": 13.29, "cost_c": 39.0,
         "c_v": 0.15, "c_m": 0.75, "reserve_cost": 16.2}],
    "pipelines": [
        {"length_km": 1.2, "diameter_m": 0.3, "mass_flow_kg_s": 4.0,
         "thermal_resistance_km_c_per_kw": 20.0, "ambient_temp_c": 0.0}],
    "temperature_bounds": {"supply_min": 90.0, "supply_max": 100.0,
                           "return_min": 35.0, "return_max": 60.0},
    "buildings": [{"heat_transfer_kw_m2c": 0.0015, "surface_m2": 22000.0,
                   "volume_m3": 66000.0}],
    "pmv": {"metabolic_w_m2": 80.0, "clothing_m2c_w": 0.261,
            "skin_temp_c": 33.5},
    "wt": {"z": 8.0, "u": 2.2, "v_in": 3.0, "v_e": 12.0, "v_out": 25.0,
           "p_e": 0.3},
    "fixed_load_mw": [1.4, 1.8, 1.6],
    "outdoor_temp_c": [-10.0, -6.0, -8.0],
}


def toy_dict():
    return copy.deepcopy(TOY3)


def model_digest(*models) -> str:
    """One sha256 over compiled models, in order: the names of the model,
    its columns and its rows, the matrix as CSR arrays, the column and row
    bounds, `c`, the integrality flags and the objective's terms and
    constant. Equal digests mean the solver is handed the same problem."""
    h = hashlib.sha256()
    for m in models:
        h.update(json.dumps([m.name, m.var_names, list(m.row_index)]).encode())
        for arr, dtype in [(m.a.indptr, np.int64), (m.a.indices, np.int64),
                           (m.a.data, float), (m.col_lower, float),
                           (m.col_upper, float), (m.row_lower, float),
                           (m.row_upper, float), (m.c, float),
                           (m.integrality, np.int64), (m.obj_cols, np.int64),
                           (m.obj_coefs, float), ([m.obj_const], float)]:
            arr = np.asarray(arr, dtype)
            h.update(np.int64(arr.size).tobytes() + arr.tobytes())
    return h.hexdigest()


def random_follower_point(cfg, rng):
    """A random feasible users' response: the shift total spread over the
    periods by bounded pairwise transfers, and a heat cut inside its
    bounds."""
    lb, ub = cfg.shift_lower(), cfg.shift_upper()
    total = cfg.shift_total()
    p_sl = lb + (ub - lb) * (total - lb.sum()) / max(float((ub - lb).sum()), 1e-12)
    for _ in range(4 * cfg.horizon):
        i, j = rng.integers(0, cfg.horizon, size=2)
        if i == j:
            continue
        room = min(float(p_sl[i] - lb[i]), float(ub[j] - p_sl[j]))
        if room <= 0:
            continue
        step = rng.uniform(0.0, room)
        p_sl[i] -= step
        p_sl[j] += step
    h_cl = rng.uniform(0.0, cfg.cut_upper())
    return p_sl, h_cl


@pytest.fixture
def toy_cfg():
    return scenario_from_dict(toy_dict())


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy3.json"
    path.write_text(json.dumps(TOY3))
    return path


@pytest.fixture(scope="session")
def case1_path():
    return SCENARIO_DIR / "case1_like.json"


@pytest.fixture(scope="session")
def case2_path():
    return SCENARIO_DIR / "case2_real.json"
