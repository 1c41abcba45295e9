import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochcuts.instance_io import (parse, parse_verbose, emit, load, save,
                                   builtin, generate_sslp, GeneratorConfig,
                                   FormatError, SchemaError, DimensionError,
                                   FORMAT_TAG, BUILTIN_NAMES)
from stochcuts.model import (Instance, Scenario, CONTINUOUS, BINARY, INTEGER,
                             validate)

# sha256 of emit() for the builtins and the benchmark's server-location
# instances (sites, clients, scenarios, seed): the benchmark solves these
# bytes, so an emitter change that moves them changes its input
EMIT_SHA256 = {
    "thm1": "5505461eb9d97c7778bfded0d7468462e3d37c43beca3d94da4a925108b37836",
    "refinement-example":
        "76940a1ef32b88b9262cd82fa960721211147d7f61eacc6529c2303b74b4e524",
    "dim1-random-0":
        "a8032933962c541e9c160970232ca5deb84262727668ea0f19264bea6c5f3df9",
    "dim1-random-1":
        "f7a4a83bc6d48e487f4597e32710f702d32975cdcb8136ab2407e140c942c3b4",
    "dim1-random-2":
        "6c3ea1bdadaf8a16324cf270d83902706bf6d753dc5daa6c4fc588806d36a26a",
    "dim1-random-3":
        "287e70644c0e76dae00671c09f3d4c2aff25eff7572c627249ee9a958ac525a3",
    "dim1-random-4":
        "b1f8ac3d400c425ba6d8823146bfad8bbc376a73e09c35ac9091a724ebfc3734",
    "dim1-random-5":
        "eed05bd60575ba4bcee52d2fbfa38b1d774157ec20f282ebdc8fb1d1d7e4a92e",
    (10, 10, 20, 0):
        "fa3d2d59435ede8db4a91fb7952d1449f019f9dc3f6200bd6bd9348908087866",
    (10, 10, 20, 1):
        "a24ef0133f6a1495a8921b163ee49a1d658db3a8e71c24d5f3a6f855989529d6",
    (6, 8, 8, 0):
        "5973eaea4d8e7fa04e0ecc72219ea2ac73fd8fd2fcf114f4675c827a71d62d8f",
    (6, 8, 8, 1):
        "9383cbbe7f8e24790d3ed712e169950897817eadc20f212fc5a7da0b81a89ad1",
}


def test_round_trip_identity(thm1, refinement_example, small_sslp):
    for inst in (thm1, refinement_example, small_sslp(seed=7)):
        text = emit(inst)
        again = parse(text)
        assert again == inst
        # emitting the parse is byte stable
        assert emit(again) == text


def test_round_trip_via_files(tmp_path, small_sslp):
    inst = small_sslp(seed=2)
    path = tmp_path / "inst.txt"
    save(inst, path)
    assert load(path) == inst


def test_emit_header(thm1):
    lines = emit(thm1).splitlines()
    assert lines[0] == FORMAT_TAG
    assert lines[1] == "name thm1"
    assert lines[2] == "dims 2 1 0 2 2"


def test_comments_and_blanks_ignored():
    text = "\n".join([
        FORMAT_TAG,
        "# a comment",
        "name tiny",
        "",
        "dims 1 1 0 1 1   # trailing comment",
        "d 0 2.0",
        "W 0 0 1.0",
        "scenario 0 1.0",
        "T 0 0 0 1.0",
        "h 0 0 0.5",
    ])
    inst, warnings = parse_verbose(text)
    assert warnings == []
    assert inst.name == "tiny"
    assert validate(inst) == []


def test_duplicate_entries_sum_with_warning():
    text = "\n".join([
        FORMAT_TAG,
        "dims 1 1 0 1 1",
        "d 0 2.0",
        "d 0 3.0",
        "W 0 0 1.0",
        "scenario 0 1.0",
        "h 0 0 0.5",
    ])
    inst, warnings = parse_verbose(text)
    assert inst.second_stage_cost[0] == pytest.approx(5.0)
    assert len(warnings) == 1
    assert "duplicate d entry" in warnings[0]


def test_unknown_schema_tag():
    with pytest.raises(SchemaError, match="unknown schema"):
        parse("stochcuts-v999\ndims 1 1 0 1 1\n")


def test_malformed_lines():
    with pytest.raises(FormatError, match="unknown directive"):
        parse(f"{FORMAT_TAG}\ndims 1 1 0 1 1\nbogus 1 2\n")
    with pytest.raises(FormatError, match="expected a number"):
        parse(f"{FORMAT_TAG}\ndims 1 1 0 1 1\nd 0 abc\n")
    with pytest.raises(FormatError, match="missing dims"):
        parse(f"{FORMAT_TAG}\nname only\n")
    with pytest.raises(FormatError, match="dims must come before"):
        parse(f"{FORMAT_TAG}\nd 0 1.0\ndims 1 1 0 1 1\n")


def test_dimension_errors():
    with pytest.raises(DimensionError, match="no scenarios"):
        parse(f"{FORMAT_TAG}\ndims 1 1 0 1 0\n")
    with pytest.raises(DimensionError, match="out of range"):
        parse(f"{FORMAT_TAG}\ndims 1 1 0 1 1\nd 5 1.0\n")
    with pytest.raises(DimensionError, match="never declared"):
        parse(f"{FORMAT_TAG}\ndims 1 1 0 1 2\nscenario 0 1.0\n")


def test_second_dims_line_rejected(thm1):
    # a repeated dims line after thm1's W entries used to reset the marks
    # and every entry read so far, leaving continuous x and W = 0
    lines = emit(thm1).splitlines()
    at = max(i for i, line in enumerate(lines) if line.startswith("W ")) + 1
    lines.insert(at, lines[2])
    with pytest.raises(FormatError,
                       match=f"^line {at + 1}: dims declared twice$"):
        parse("\n".join(lines))


def test_generator_dimensions():
    cfg = GeneratorConfig(sites=20, clients=100, scenarios=5, seed=0)
    inst = generate_sslp(cfg)
    assert inst.n1 == 20
    assert inst.n2 == 20 * 100
    assert inst.m2 == 120
    assert inst.n_scenarios == 5
    assert validate(inst) == []


def test_generator_deterministic():
    cfg = GeneratorConfig(sites=4, clients=6, scenarios=3, seed=11)
    a = generate_sslp(cfg)
    b = generate_sslp(cfg)
    assert a == b
    c = generate_sslp(GeneratorConfig(sites=4, clients=6, scenarios=3, seed=12))
    assert a != c


def test_generator_probabilities_uniform(small_sslp):
    inst = small_sslp(scenarios=7)
    probs = [s.probability for s in inst.scenarios]
    assert probs == pytest.approx([1 / 7] * 7)


def test_generator_budget_row():
    cfg = GeneratorConfig(sites=5, clients=4, scenarios=2, seed=0,
                          site_budget=3)
    inst = generate_sslp(cfg)
    assert inst.m1 == 1
    assert inst.first_stage_matrix[0] == pytest.approx(np.ones(5))
    assert inst.first_stage_rhs[0] == pytest.approx(3.0)


def test_generator_config_validation():
    with pytest.raises(ValueError, match="scenario_count must be >= 1"):
        GeneratorConfig(scenarios=0)
    with pytest.raises(ValueError):
        GeneratorConfig(sites=0)
    # a fractional budget would ask for 1.5 open sites, an empty first
    # stage; a fractional count dies inside numpy without this check
    for field, value in (("site_budget", 1.5), ("sites", 2.5),
                         ("clients", 4.0), ("scenarios", "4"),
                         ("seed", 0.5), ("seed", None)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GeneratorConfig(**{"sites": 3, "clients": 4, "scenarios": 4,
                               field: value})
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        GeneratorConfig(seed=-1)
    assert GeneratorConfig(sites=np.int64(3), site_budget=None).sites == 3


def test_builtin_thm1_arrays(thm1):
    assert thm1.first_stage_cost == pytest.approx([0.0, 0.0])
    assert thm1.second_stage_cost == pytest.approx([1.0])
    assert np.asarray(thm1.recourse) == pytest.approx(np.ones((2, 1)))
    t0 = np.asarray(thm1.scenarios[0].technology)
    assert t0 == pytest.approx(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert thm1.scenarios[1].rhs == pytest.approx([1.0, -1.0])


def test_builtin_dim1_family():
    for seed in range(6):
        inst = builtin(f"dim1-random-{seed}")
        assert inst.n1 == 1
        assert inst.n_scenarios == 3 + seed % 4
        assert validate(inst) == []


def test_builtin_refinement_example(refinement_example):
    inst = refinement_example
    assert inst.n_scenarios == 4
    pairs = [(float(s.technology[0, 0]), float(s.rhs[0]))
             for s in inst.scenarios]
    assert pairs == [(2.0, 1.0), (1.0, 1.5), (-2.0, -1.0), (-2.0, -1.5)]
    assert [s.probability for s in inst.scenarios] == pytest.approx([0.25] * 4)


def test_builtin_unknown_name():
    with pytest.raises(ValueError) as err:
        builtin("nope")
    for name in BUILTIN_NAMES:
        assert name.split("<")[0].rstrip("-") in str(err.value) or name in str(err.value)


@pytest.mark.parametrize("key", EMIT_SHA256, ids=str)
def test_emit_bytes_pinned(key):
    if isinstance(key, tuple):
        sites, clients, scenarios, seed = key
        inst = generate_sslp(GeneratorConfig(
            sites=sites, clients=clients, scenarios=scenarios, seed=seed))
    else:
        inst = builtin(key)
    text = emit(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_SHA256[key]
    assert emit(parse(text)) == text


@pytest.mark.parametrize("p0, p1, defects", [
    ("0.1", "0.75", ["probabilities sum to 0.85"]),
    ("0", "1", ["scenario 0: probability 0 is not positive"]),
    ("-0.5", "1.5", ["scenario 0: probability -0.5 is not positive"]),
    ("nan", "1", ["probabilities sum to nan",
                  "scenario 0: probability nan is not positive"]),
    ("inf", "1", ["probabilities sum to inf"]),
])
def test_invalid_probabilities_rejected_at_load(p0, p1, defects):
    text = "\n".join([FORMAT_TAG, "dims 1 1 0 1 2", "W 0 0 1.0",
                      f"scenario 0 {p0}", f"scenario 1 {p1}", ""])
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == "invalid instance: " + "; ".join(defects)


@pytest.mark.parametrize("line, edit, defect", [
    ("h 0 0 1.0", "h 0 0 nan", "scenario 0: h has a non-finite entry"),
    ("d 0 3.0", "d 0 inf", "d has a non-finite entry"),
    ("c 0 1.0", "c 0 -inf", "c has a non-finite entry"),
    ("W 0 0 1.0", "W 0 0 nan", "W has a non-finite entry"),
    ("T 2 0 0 -2.0", "T 2 0 0 inf", "scenario 2: T has a non-finite entry"),
])
def test_non_finite_data_rejected_at_load(line, edit, defect):
    # refinement-example with one value replaced; at load time it used to
    # load, and then benders ended `converged` at a wrong bound (h 0 0 nan)
    # or raised "master problem unbounded" (d 0 inf) inside the driver
    text = emit(builtin("refinement-example"))
    assert line in text.splitlines()
    with pytest.raises(FormatError) as err:
        parse(text.replace(line, edit))
    assert str(err.value) == "invalid instance: " + defect


def _integer_example(upper=None):
    """refinement-example with its column marked integer, plus `u 0 upper`
    unless upper is None."""
    text = emit(builtin("refinement-example"))
    text = text.replace("mark binary 0", "mark integer 0")
    if upper is not None:
        text = text.replace("W 0 0", f"u 0 {upper}\nW 0 0")
    return text


def test_integer_column_needs_an_upper_bound():
    # every driver used to crash on this file deep inside branch and bound
    # ("integer variables need finite bounds"); now it fails at load
    with pytest.raises(FormatError) as err:
        parse(_integer_example())
    assert str(err.value) == ("invalid instance: integer column 0 needs a "
                              "finite bound: u 0 <value>")


@pytest.mark.parametrize("line, defect", [
    ("u 0 -1.0", "u 0 is negative"),
    ("u 0 nan", "u has a NaN entry"),
])
def test_bad_upper_bound_rejected_at_load(line, defect):
    text = emit(builtin("refinement-example")).replace(
        "W 0 0", line + "\nW 0 0")
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == "invalid instance: " + defect


def test_upper_bound_line():
    text = _integer_example(2.0)
    inst = parse(text)
    assert inst.first_stage_upper.tolist() == [2.0]
    assert [b.tolist() for b in inst.x_bounds()] == [[0.0], [2.0]]
    assert emit(inst) == text
    # a binary column keeps its [0, 1] box under a looser u
    binary = parse(text.replace("mark integer 0", "mark binary 0"))
    assert binary.x_bounds()[1].tolist() == [1.0]
    # no u line: no upper bound, and nothing extra emitted
    assert parse(emit(builtin("thm1"))).first_stage_upper.tolist() == \
        [np.inf, np.inf]


def test_validate_flags_non_finite_first_stage_rows():
    inst = Instance("rows", [1.0], [[np.nan]], [np.inf], [CONTINUOUS], [1.0],
                    [[1.0]], (Scenario(1.0, [[1.0]], [0.0]),))
    assert validate(inst) == ["A has a non-finite entry",
                              "b has a non-finite entry"]


@st.composite
def instances(draw):
    """Small valid instances with finite data, every mark kind."""
    n1, n2, m2, ns = (draw(st.integers(1, 3)) for _ in range(4))
    m1 = draw(st.integers(0, 2))
    value = st.one_of(st.just(0.0), st.floats(allow_nan=False,
                                              allow_infinity=False))

    def array(*shape):
        flat = draw(st.lists(value, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    weights = draw(st.lists(st.integers(1, 9), min_size=ns, max_size=ns))
    total = sum(weights)
    scenarios = tuple(Scenario(w / total, array(m2, n1), array(m2))
                      for w in weights)
    marks = draw(st.lists(st.sampled_from((CONTINUOUS, BINARY, INTEGER)),
                          min_size=n1, max_size=n1))
    # a u line on every integer column, which needs one, and on some others
    bound = st.floats(0.0, 1e6)
    upper = [draw(bound if mark == INTEGER else st.one_of(st.none(), bound))
             for mark in marks]
    name = draw(st.from_regex(r"[a-z0-9-]{1,8}", fullmatch=True))
    return Instance(name, array(n1), array(m1, n1), array(m1), marks,
                    array(n2), array(m2, n2), scenarios,
                    [np.inf if u is None else u for u in upper])


@settings(max_examples=150, deadline=None)
@given(instances())
def test_emit_parse_round_trip(inst):
    assert validate(inst) == []
    text = emit(inst)
    again = parse(text)
    assert again == inst
    assert emit(again) == text
