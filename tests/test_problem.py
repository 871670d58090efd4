"""Validation, coefficient evaluation, phase, and config round-trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import baseline_spec, build_spec, mixed_spec, random_spec
from sl2t.problem import (
    ConfigError,
    PiecewisePotential,
    ProblemSpec,
    SolverConfig,
    config_dict,
    load_config,
    parse_config,
    phase,
    piece_bounds,
    piece_index_at,
    q_at,
    spec_digest,
    validate,
    weight_at,
)


# ---------------------------------------------------------------------------
# validation


def test_validate_returns_same_object():
    spec = baseline_spec()
    assert validate(spec) is spec
    assert validate(validate(spec)) is spec


def test_rho_positive_required():
    # beta1'*beta2 - beta1*beta2' = -1 here
    with pytest.raises(ConfigError, match="beta"):
        build_spec(beta=(1.0, 0.0), beta_prime=(0.0, 1.0))


def test_degenerate_beta_prime_rejected():
    with pytest.raises(ConfigError, match="beta_prime"):
        build_spec(beta_prime=(0.0, 0.0))


def test_interface_ordering_enforced():
    with pytest.raises(ConfigError, match="h1"):
        build_spec(h1=0.5, h2=0.25)
    with pytest.raises(ConfigError, match="h1"):
        build_spec(h1=-1.0)
    with pytest.raises(ConfigError, match="h1"):
        build_spec(h2=1.0)


def test_positive_weights_required():
    with pytest.raises(ConfigError, match="omega"):
        build_spec(omega=(1.0, -2.0, 1.0))
    with pytest.raises(ConfigError, match="omega"):
        build_spec(omega=(0.0, 1.0, 1.0))


def test_alpha_range():
    build_spec(alpha=0.0)
    build_spec(alpha=math.pi * 0.999)
    with pytest.raises(ConfigError, match="alpha"):
        build_spec(alpha=math.pi)
    with pytest.raises(ConfigError, match="alpha"):
        build_spec(alpha=-0.1)


def test_zero_jump_constants_rejected_with_index():
    with pytest.raises(ConfigError, match=r"gamma\[2\]"):
        build_spec(gamma=(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ConfigError, match=r"delta\[0\]"):
        build_spec(delta=(0.0, 1.0, 1.0, 1.0))


def test_all_violations_reported_together():
    spec = ProblemSpec(
        h1=0.5, h2=0.25, omega=(1.0, -1.0, 1.0), alpha=4.0,
        beta=(1.0, 0.0), beta_prime=(0.0, 1.0),
        gamma=(1.0, 1.0, 0.0, 1.0), delta=(1.0, 1.0, 1.0, 1.0),
    )
    with pytest.raises(ConfigError) as err:
        validate(spec)
    msgs = err.value.errors
    assert len(msgs) == 5
    joined = " ".join(msgs)
    for token in ("h1", "omega", "alpha", "beta", "gamma[2]"):
        assert token in joined


def test_nonfinite_fields_rejected():
    with pytest.raises(ConfigError, match="omega"):
        build_spec(omega=(1.0, math.nan, 1.0))
    with pytest.raises(ConfigError, match="q.pieces"):
        build_spec(q=PiecewisePotential(((0.0,), (math.inf,), (0.0,))))


def test_solver_knobs_checked():
    with pytest.raises(ConfigError, match="rk_tol"):
        build_spec(solver=SolverConfig(rk_tol=-1e-9))
    with pytest.raises(ConfigError, match="quad_nodes"):
        build_spec(solver=SolverConfig(quad_nodes=1))
    with pytest.raises(ConfigError, match="bracket_subdiv"):
        build_spec(solver=SolverConfig(bracket_subdiv=2))


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"solver": SolverConfig(rk_tol="x")}, "solver.rk_tol: expected a number"),
        ({"solver": SolverConfig(quad_nodes=33.0)}, "solver.quad_nodes: expected an integer"),
        ({"omega": None}, "omega: expected a list of 3 numbers"),
        ({"h2": "0.5"}, "h2: expected a number"),
        ({"q": PiecewisePotential(((0.0,), None, (0.0,)))}, "q.pieces[1]: expected a nonempty list"),
        ({"q": PiecewisePotential(((0.0,), (0.0,), (0.0, None)))}, "q.pieces[2][1]: expected a number"),
        ({"q": None}, "q: expected an object"),
        ({"solver": None}, "solver: expected an object"),
    ],
)
def test_wrongly_typed_fields_of_a_built_spec_are_config_errors(overrides, path):
    with pytest.raises(ConfigError) as err:
        validate(replace(baseline_spec(), **overrides))
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith(path)


def test_derived_scalars():
    spec = mixed_spec()
    b1, b2 = spec.beta
    b1p, b2p = spec.beta_prime
    assert spec.rho == pytest.approx(b1p * b2 - b1 * b2p)
    m2 = spec.delta[0] * spec.delta[1] / (spec.gamma[0] * spec.gamma[1])
    assert spec.m2 == pytest.approx(m2)
    assert spec.m3 == pytest.approx(m2 * spec.delta[2] * spec.delta[3] / (spec.gamma[2] * spec.gamma[3]))
    assert spec.is_definite
    assert not build_spec(gamma=(-1.0, 1.0, 1.0, 1.0)).is_definite


# ---------------------------------------------------------------------------
# coefficient evaluation


def test_weight_is_piecewise_squared_amplitude():
    spec = build_spec(omega=(1.0, 2.0, 3.0))
    assert weight_at(spec, -0.5) == 1.0
    assert weight_at(spec, 0.0) == 4.0
    assert weight_at(spec, 0.9) == 9.0


def test_weight_at_interface_needs_side():
    spec = build_spec(omega=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="side"):
        weight_at(spec, spec.h2)
    assert weight_at(spec, spec.h2, side="left") == 4.0
    assert weight_at(spec, spec.h2, side="right") == 9.0


def test_weight_outside_domain():
    spec = baseline_spec()
    with pytest.raises(ValueError, match="outside"):
        weight_at(spec, 1.5)


def test_q_defaults_to_zero():
    spec = baseline_spec()
    for x in (-0.9, -0.2, 0.0, 0.7):
        assert q_at(spec, x) == 0.0


def test_q_polynomial_evaluation():
    spec = build_spec(q=[[1.0, 2.0], [5.0], [0.0]])
    assert q_at(spec, -0.5) == pytest.approx(0.0)  # 1 + 2*(-0.5)
    assert q_at(spec, -0.7) == pytest.approx(1.0 + 2.0 * -0.7)
    assert q_at(spec, spec.h1, side="right") == 5.0
    assert q_at(spec, spec.h1, side="left") == pytest.approx(1.0 + 2.0 * spec.h1)


def test_piece_bounds_and_index():
    spec = mixed_spec()
    assert piece_bounds(spec, 1) == (-1.0, spec.h1)
    assert piece_bounds(spec, 3) == (spec.h2, 1.0)
    with pytest.raises(ValueError):
        piece_bounds(spec, 0)
    assert piece_index_at(spec, -1.0) == 1
    assert piece_index_at(spec, 1.0) == 3
    assert piece_index_at(spec, spec.h1, side="left") == 1
    assert piece_index_at(spec, spec.h1, side="right") == 2


# ---------------------------------------------------------------------------
# accumulated phase


def test_phase_anchors():
    spec = baseline_spec()
    assert phase(spec, -1.0) == 0.0
    assert phase(spec, 1.0) == pytest.approx(2.0)
    spec = build_spec(omega=(1.0, 2.0, 3.0))
    # 1*(2/3) + 2*(2/3) + 3*(2/3)
    assert phase(spec, 1.0) == pytest.approx(4.0)


def test_phase_slopes_match_amplitudes():
    spec = mixed_spec()
    d = 1e-3
    for i in (1, 2, 3):
        a, b = piece_bounds(spec, i)
        x = 0.5 * (a + b)
        slope = (phase(spec, x + d) - phase(spec, x - d)) / (2.0 * d)
        assert slope == pytest.approx(spec.omega[i - 1], rel=1e-12)


def test_phase_vectorized_and_monotone():
    spec = mixed_spec()
    xs = np.linspace(-1.0, 1.0, 801)
    th = phase(spec, xs)
    assert th.shape == xs.shape
    assert th[0] == 0.0
    assert np.all(np.diff(th) > 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-1.0, max_value=1.0))
def test_phase_monotone_random_specs(seed, x):
    spec = random_spec(np.random.default_rng(seed))
    lo = phase(spec, -1.0)
    mid = phase(spec, x)
    hi = phase(spec, 1.0)
    assert lo <= mid <= hi
    assert hi > 0.0


def test_coefficients_match_direct_formula_on_random_points():
    rng = np.random.default_rng(7)
    for trial in range(20):
        spec = random_spec(rng, constant_q=False)
        xs = rng.uniform(-1.0, 1.0, size=50)
        for x in xs:
            if abs(x - spec.h1) < 1e-9 or abs(x - spec.h2) < 1e-9:
                continue
            i = 0 if x < spec.h1 else (1 if x < spec.h2 else 2)
            assert weight_at(spec, float(x)) == spec.omega[i] ** 2
            expected = sum(c * x**k for k, c in enumerate(spec.q.pieces[i]))
            assert q_at(spec, float(x)) == pytest.approx(expected, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# config front end


S0_CONFIG = {
    "h1": -1.0 / 3.0,
    "h2": 1.0 / 3.0,
    "omega": [1.0, 1.0, 1.0],
    "alpha": 0.0,
    "beta": [0.0, 1.0],
    "beta_prime": [1.0, 0.0],
    "gamma": [1.0, 1.0, 1.0, 1.0],
    "delta": [1.0, 1.0, 1.0, 1.0],
}


def test_parse_minimal_config_applies_defaults():
    spec = parse_config(json.dumps(S0_CONFIG))
    assert spec.q.is_zero()
    assert spec.solver == SolverConfig()
    assert spec == baseline_spec()


def test_parse_reports_paths_for_all_errors():
    bad = dict(S0_CONFIG)
    del bad["alpha"]
    bad["omega"] = [1.0, "x", 1.0]
    bad["gamma"] = [1.0, 1.0, 1.0]
    bad["solver"] = {"rk_tol": "tight", "mystery": 3}
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    errors = err.value.errors
    assert len(errors) == 5
    for token in ("alpha", "omega[1]", "gamma", "solver.rk_tol", "solver.mystery"):
        assert sum(token in line for line in errors) == 1, token


def test_parse_reports_each_violation_once():
    bad = dict(S0_CONFIG, h1=None, omega=[1.0, math.inf], beta_prime=[0.0, 0.0])
    bad["q"] = {"pieces": [[0.0], [], [1.0, "x"]]}
    bad["solver"] = {"quad_nodes": 6.5, "rk_tol": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.errors == [
        "h1: expected a number",
        "omega: expected a list of 3 numbers",
        "q.pieces[1]: expected a nonempty list of numbers",
        "q.pieces[2][1]: expected a number",
        "solver.rk_tol: must lie in (0, 1e-4]",
        "solver.quad_nodes: expected an integer",
    ]


def test_integer_literals_parse_like_their_float_twins():
    ints = dict(S0_CONFIG, h1=-0.5, h2=0, omega=[1, 2, 1], alpha=1, beta=[0, 1],
                gamma=[1, 1, 2, 1], q={"pieces": [[0], [1, 2], [0]]})
    floats = json.loads(json.dumps(ints), parse_int=float)
    assert parse_config(ints) == parse_config(floats)
    assert spec_digest(parse_config(ints)) == spec_digest(parse_config(floats))
    assert all(type(w) is float for w in parse_config(ints).omega)


def test_parse_rejects_unknown_top_level_keys():
    bad = dict(S0_CONFIG, extra=1)
    with pytest.raises(ConfigError, match="extra"):
        parse_config(bad)


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_parse_runs_admissibility_checks():
    bad = dict(S0_CONFIG, beta=[1.0, 0.0], beta_prime=[0.0, 1.0])
    with pytest.raises(ConfigError, match="beta"):
        parse_config(bad)


def test_config_round_trip():
    spec = mixed_spec()
    again = parse_config(json.dumps(config_dict(spec)))
    assert again == spec


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(S0_CONFIG))
    assert load_config(path) == baseline_spec()


def test_load_config_merges_solver_overrides(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(dict(S0_CONFIG, solver={"rk_tol": 1e-9, "quad_nodes": 33})))
    spec = load_config(path, ["quad_nodes=65", "root_tol=1e-10"])
    assert spec.solver == SolverConfig(rk_tol=1e-9, root_tol=1e-10, quad_nodes=65)
    assert isinstance(spec.solver.quad_nodes, int)


def test_load_config_rejects_malformed_override_before_reading(tmp_path):
    for item in ("bogus=1", "rk_tol", "rk_tol=abc", "quad_nodes=6.5"):
        with pytest.raises(ValueError) as info:
            load_config(tmp_path / "absent.json", [item])
        assert not isinstance(info.value, ConfigError), item


def test_load_config_file_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def test_digest_ignores_formatting_but_not_values(tmp_path):
    a = json.dumps(S0_CONFIG, indent=4)
    b = json.dumps(dict(reversed(list(S0_CONFIG.items()))))
    assert spec_digest(parse_config(a)) == spec_digest(parse_config(b))

    changed = dict(S0_CONFIG, h1=-0.25)
    assert spec_digest(parse_config(json.dumps(changed))) != spec_digest(parse_config(a))
    with_q = dict(S0_CONFIG, q={"pieces": [[0.5], [0.0], [0.0]]})
    assert spec_digest(parse_config(json.dumps(with_q))) != spec_digest(parse_config(a))


def test_digest_is_short_hex():
    d = spec_digest(baseline_spec())
    assert len(d) == 16
    int(d, 16)
