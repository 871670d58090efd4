"""Validation, piece lookup, phase, and config round-trips."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, baseline_spec, build_spec, mixed_spec, random_spec
from sl2t.shooting import _legs
from sl2t.problem import (
    ConfigError,
    ProblemSpec,
    SolverConfig,
    config_dict,
    load_config,
    parse_config,
    phase,
    piece_bounds,
    piece_index_at,
    spec_digest,
    validate,
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
        build_spec(q=((0.0,), (math.inf,), (0.0,)))


def test_solver_knobs_checked():
    with pytest.raises(ConfigError, match="rk_tol"):
        build_spec(solver=SolverConfig(rk_tol=-1e-9))
    with pytest.raises(ConfigError, match="quad_nodes"):
        build_spec(solver=SolverConfig(quad_nodes=1))
    with pytest.raises(ConfigError, match="bracket_subdiv"):
        build_spec(solver=SolverConfig(bracket_subdiv=2))


def test_solver_settings_that_size_the_work_have_ceilings():
    # checked, never built: a 4096-node rule is a 128 MiB eigenproblem
    assert SolverConfig(quad_nodes=4096, bracket_subdiv=1024).check() == []
    assert SolverConfig(quad_nodes=4097, bracket_subdiv=1025).check() == [
        "solver.quad_nodes: must be an integer in [2, 4096]",
        "solver.bracket_subdiv: must be an integer in [4, 1024]",
    ]
    with pytest.raises(ConfigError, match=r"quad_nodes: must be an integer in \[2, 4096\]"):
        build_spec(solver=SolverConfig(quad_nodes=10**400))


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"solver": SolverConfig(rk_tol="x")}, "solver.rk_tol: expected a number"),
        ({"solver": SolverConfig(quad_nodes=33.0)}, "solver.quad_nodes: expected an integer"),
        ({"omega": None}, "omega: expected a list of 3 numbers"),
        ({"h2": "0.5"}, "h2: expected a number"),
        ({"q": ((0.0,), None, (0.0,))}, "q.pieces[1]: expected a nonempty list"),
        ({"q": ((0.0,), (0.0,), (0.0, None))}, "q.pieces[2][1]: expected a number"),
        ({"q": None}, "q.pieces: expected a list of 3 coefficient lists"),
        ({"solver": None}, "solver: expected an object"),
    ],
)
def test_wrongly_typed_fields_of_a_built_spec_are_config_errors(overrides, path):
    with pytest.raises(ConfigError) as err:
        validate(replace(baseline_spec(), **overrides))
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith(path)


@pytest.mark.parametrize(
    "overrides, errors",
    [
        ({"omega": [1.0, "x", 2.0]}, ["omega[1]: expected a number"]),
        (
            {"q": [[0.0], [0.0]]},
            ["q.pieces: expected a list of 3 coefficient lists"],
        ),
    ],
)
def test_list_built_specs_report_each_violation_once(overrides, errors):
    # lists are kept as tuples, and check judges them as it judges tuples
    spec = replace(baseline_spec(), **overrides)
    assert isinstance(spec.omega, tuple) and isinstance(spec.q, tuple)
    assert spec.check() == errors


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
# piece lookup


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


def test_array_lookups_follow_the_scalar_rule():
    # piece_index_at reads each point of an array as a scalar
    spec = build_spec(omega=(1.0, 2.0, 3.0), q=[[1.0, 2.0], [5.0, -1.0], [0.5]])
    h1, h2 = spec.h1, spec.h2
    xs = np.array([-1.0, -0.7, h1 - 5e-13, h1, h1 + 5e-13, 0.0, h2, h2 + 5e-13, 1.0])
    for side in ("left", "right"):
        got = piece_index_at(spec, xs, side)
        want = [piece_index_at(spec, float(x), side) for x in xs]
        assert got.shape == xs.shape and got.tolist() == want, side
    assert piece_index_at(spec, xs, "left").tolist() == [1, 1, 1, 1, 1, 2, 2, 2, 3]
    assert piece_index_at(spec, xs, "right").tolist() == [1, 1, 2, 2, 2, 2, 3, 3, 3]
    inside = xs[[0, 1, 5, 8]]  # no point near an interface: side is not needed
    with pytest.raises(ValueError, match="side"):
        piece_index_at(spec, xs)
    assert piece_index_at(spec, inside).tolist() == piece_index_at(spec, inside, "left").tolist()
    for bad in (np.nan, 1.5, -1.0 - 1e-9):
        with pytest.raises(ValueError, match="outside"):
            piece_index_at(spec, np.array([0.0, bad]))
        with pytest.raises(ValueError, match="outside"):
            piece_index_at(spec, bad)


@pytest.mark.parametrize("side", ["up", "Left", "", 0])
def test_piece_lookup_refuses_a_side_it_does_not_know(side):
    # side is checked before x, so a misspelling fails away from an interface too
    spec = mixed_spec()
    for x in (0.0, spec.h1, np.array([-0.9, 0.0])):
        with pytest.raises(ValueError, match=f"side must be None, 'left' or 'right', got {side!r}"):
            piece_index_at(spec, x, side=side)


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
    assert spec.q == ((0.0,), (0.0,), (0.0,))
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


def test_parse_reports_a_missing_key_by_name():
    bad = dict(S0_CONFIG)
    del bad["omega"]
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.errors == ["omega: missing required key"]


def test_parse_rejects_a_root_that_is_not_an_object():
    with pytest.raises(ConfigError) as err:
        parse_config("[]")
    assert err.value.errors == ["config root: expected a JSON object"]


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


@pytest.mark.parametrize("q", [[[0], [0], [0]], {"pieces": [[0], [0], [0]], "x": 1}, None])
def test_parse_refuses_a_q_that_is_not_a_pieces_object(q):
    with pytest.raises(ConfigError) as err:
        parse_config(dict(S0_CONFIG, q=q))
    assert err.value.errors == ["q: expected an object with a single 'pieces' key"]


def test_an_integer_past_the_float_range_is_not_finite():
    with pytest.raises(ConfigError) as err:
        parse_config(dict(S0_CONFIG, h1=10**400, omega=[1, -(10**400), 1]))
    assert err.value.errors == ["h1: must be finite", "omega[1]: must be finite"]


def _as(form, values):
    """``values`` as a list or a tuple, each integral float as an int when ``form`` says so."""
    container, ints = form
    return container(int(v) if ints and v == int(v) else v for v in values)


_FORMS = st.tuples(st.sampled_from([list, tuple]), st.booleans())


@settings(max_examples=25, deadline=None)
@given(
    omega=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    alpha=st.integers(0, 3),
    gamma=st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=4, max_size=4),
    q=st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=3), min_size=3, max_size=3),
    floor=st.integers(1, 1000),
    forms=st.lists(_FORMS, min_size=8, max_size=8),
)
def test_a_spec_built_from_ints_and_lists_is_its_parsed_float_twin(omega, alpha, gamma, q, floor, forms):
    raw = dict(S0_CONFIG, h1=-0.5, h2=0.0, omega=omega, alpha=alpha, beta=[0.5, 1], gamma=gamma,
               q={"pieces": q}, solver={"scan_floor_factor": floor})
    parsed = parse_config(json.loads(json.dumps(raw), parse_int=float))
    built = ProblemSpec(
        h1=-0.5, h2=0 if forms[0][1] else 0.0, omega=_as(forms[1], omega), alpha=alpha,
        beta=_as(forms[2], [0.5, 1]), beta_prime=_as(forms[3], [1, 0]),
        gamma=_as(forms[4], gamma), delta=_as(forms[5], [1, 1, 1, 1]),
        q=_as((forms[6][0], False), [_as(forms[7], c) for c in q]),
        solver=SolverConfig(scan_floor_factor=floor),
    )
    assert built == parsed and hash(built) == hash(parsed)
    assert spec_digest(built) == spec_digest(parsed)
    assert _legs(built) is _legs(parsed)


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


def _hashlib_digest(spec):
    """The first 16 hex digits of hashlib's SHA-256 of the spec's canonical JSON blob."""
    blob = json.dumps(config_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


#: the digest each bundled config has always stamped on its tables
BUNDLED_DIGESTS = {"s0": "a1966dd9b721d0b7", "case1": "38e5193916893c6a", "indefinite": "94e579c1e95c96cd"}


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_digests_are_hashlib_sha256_of_the_canonical_blob(name):
    spec = load_config(CONFIG_DIR / f"{name}.json")
    assert spec_digest(spec) == _hashlib_digest(spec) == BUNDLED_DIGESTS[name]


_ANY_NUMBER = st.floats(allow_nan=False) | st.integers(-10**20, 10**20)


def _numbers(n):
    return st.lists(_ANY_NUMBER, min_size=n, max_size=n)


@settings(max_examples=50, deadline=None)
@given(
    spec=st.builds(
        ProblemSpec, h1=_ANY_NUMBER, h2=_ANY_NUMBER, omega=_numbers(3), alpha=_ANY_NUMBER,
        beta=_numbers(2), beta_prime=_numbers(2), gamma=_numbers(4), delta=_numbers(4),
        q=st.lists(st.lists(_ANY_NUMBER, min_size=1, max_size=4), min_size=3, max_size=3),
        solver=st.builds(SolverConfig, rk_tol=_ANY_NUMBER, quad_nodes=st.integers(2, 4096)),
    )
)
def test_digest_is_hashlib_sha256_on_any_built_spec(spec):
    # the interpreter's own SHA-256 module and hashlib's agree on every blob,
    # admissible or not
    assert spec_digest(spec) == _hashlib_digest(spec)
