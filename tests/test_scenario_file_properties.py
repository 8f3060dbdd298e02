"""Property tests for the ``mvmr simulate --scenario`` file.

Whatever a scenario file holds, JSON or not, ``mvmr simulate --scenario F
--replicates 1 --max-failure-rate 1`` ends with exit code 0, 2 (a
malformed scenario) or 4 (a numerical failure); no other exception
escapes.  The files drawn range from arbitrary bytes and JSON to
near-valid scenarios of every kind that set any of the keys in the tables
of ``simulate.SCENARIO_KINDS`` and ``simulate.GENOTYPE_MODES``: index
lists with negatives, booleans, floats and duplicates, values of the
wrong type, effect-size specifications and both LD fields.

Each kind and each genotype mode accepts only the keys of its table: any
other key exits 2 with a message naming the key and the kind or mode.
And every key a kind accepts reaches what it runs: changing its value
changes the output or is refused.

Two bounds keep the run time down and narrow nothing else: sample sizes
(``n_samples``, ``n_outcome``) stay at most 5,000, so no drawn integer
exceeds that where a sample size is read, and the design-screen bounds
are drawn mostly from their feasible range, since an infeasible one
spends seconds on its two million rejected draws before it exits 2.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmr import cli, simulate

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MAX_N = 5000
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(max_value=MAX_N),
    st.floats(),
    st.text(max_size=4),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
# wrong values for keys that are not sample sizes may also be huge integers
WRONG = st.one_of(JSON, st.integers(min_value=MAX_N + 1))
UNIT = st.floats(-1.0, 1.0)
INDEX = st.one_of(st.integers(-1, 8), st.integers(-1, 8), st.integers(-1, 8), st.booleans(), st.floats(-1.0, 9.0), st.text(max_size=1))
INDICES = st.lists(INDEX, max_size=5)
SIZE = st.one_of(st.sampled_from([200, 3, 10, 1, MAX_N, 50, 1000]), st.integers(1, MAX_N))
SCENARIO_KEYS = set().union(*(spec.keys for spec in simulate.SCENARIO_KINDS.values()))
KIND_KEYS = {kind: set(spec.keys) for kind, spec in simulate.SCENARIO_KINDS.items()}
GENOTYPE_KEYS = {"mode", *(key for tables in simulate.GENOTYPE_MODES.values() for keys, _ in tables for key in keys)}
FIXTURES = st.sampled_from(["mras_esyt3", "slc22a3_lpa_plg", "adamts7_ctsh_mam", "nope", "../scenarios/fig2_corr"])


@st.composite
def _or_wrong(draw, valid, wrong=WRONG):
    """A draw of ``valid`` nine times in ten, else a value of any type."""
    return draw(wrong if draw(st.integers(0, 9)) == 9 else valid)


def _grid(value):
    """A value or, now and then, a short list of them (a grid)."""
    return st.one_of(value, value, st.lists(value, min_size=1, max_size=3))


@st.composite
def _correlation(draw, L):
    """The correlation matrix of L drawn vectors in R^3, singular beyond L = 3."""
    rows = [[draw(UNIT) + (i == j) for j in range(3)] for i in range(L)]
    norms = [sum(v * v for v in row) ** 0.5 or 1.0 for row in rows]
    return [
        [1.0 if i == j else sum(a * b for a, b in zip(rows[i], rows[j])) / (norms[i] * norms[j]) for j in range(L)]
        for i in range(L)
    ]


@st.composite
def _genotypes(draw):
    mode = draw(st.sampled_from(["markov", "markov", "pair", "gaussian", "gaussian", "gaussian_pair", None]))
    L = draw(st.integers(1, 6))
    config = {} if mode is None else {"mode": mode}
    if mode in ("pair", "gaussian_pair"):
        config["correlation"] = draw(_or_wrong(_grid(st.floats(-0.95, 0.95))))
        if draw(st.booleans()):
            config["maf"] = draw(_or_wrong(st.floats(0.05, 0.5)))
    elif draw(st.integers(0, 3)) == 3:
        config["fixture"] = draw(_or_wrong(FIXTURES))
    elif mode == "gaussian":
        config["ld"] = draw(_or_wrong(_correlation(L)))
    else:
        config["mafs"] = draw(_or_wrong(st.lists(st.floats(0.05, 0.5), min_size=L, max_size=L)))
        config["successive_r"] = draw(_or_wrong(st.lists(st.floats(-0.6, 0.9), min_size=L - 1, max_size=L - 1)))
    if draw(st.integers(0, 5)) == 5:
        config[draw(st.sampled_from(sorted(GENOTYPE_KEYS) + ["bogus"]))] = draw(WRONG)
    return config


@st.composite
def _effects(draw, K):
    keys = {
        "low": st.floats(-0.3, 0.3),
        "high": st.floats(0.1, 1.0),
        "signs": st.sampled_from(["positive", "random", "both"]),
        "det_min": st.floats(-0.05, 0.05),
        "det_max": st.floats(0.0, 0.5),
        "design_gram_min": st.floats(0.0, 0.3),
        "design_strength_min": st.floats(0.0, 0.2),
        "matrix": st.lists(st.lists(UNIT, min_size=K, max_size=K), min_size=1, max_size=6),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True))
    return {key: draw(_or_wrong(keys[key])) for key in chosen}


@st.composite
def _scenario(draw):
    K = draw(st.integers(1, 3))
    effects = st.lists(UNIT, min_size=K, max_size=K)
    kind = draw(st.sampled_from(["replicates"] * 4 + [*simulate.SCENARIO_KINDS, "bogus"]))
    config = {
        "kind": kind,
        "true_effects": draw(_or_wrong(effects)),
        "n_samples": draw(_or_wrong(_grid(SIZE), JSON)),
        "genotypes": draw(_or_wrong(_genotypes())),
        "seed": draw(_or_wrong(st.integers(0, 2**64))),
    }
    optional = {
        "name": st.text(max_size=6),
        "effects": _effects(K),
        "causal_instruments": st.one_of(INDICES, st.lists(INDICES, min_size=K, max_size=K)),
        "noise_variance": st.floats(0.0, 3.0),
        "hidden_exposures": INDICES,
        "hidden_effect_grid": st.lists(UNIT, max_size=3),
        "instrument_subset": INDICES,
        "ld_prune_r2": _grid(st.floats(0.0, 1.0)),
        "n_outcome": _grid(SIZE),
        "ld_choice": st.sampled_from(["exposure", "outcome", "reference", "cohort"]),
        "ld_wishart_df": st.integers(0, 60),
        "replicates": st.integers(-1, 10),
        "exposure_names": st.lists(st.text(max_size=3), min_size=K, max_size=K),
        "estimators": st.lists(st.sampled_from(["ls", "gmm", "twmr"]), min_size=1, max_size=3),
        "conditional_f": st.booleans(),
        "alpha": st.floats(0.0, 1.0),
        "null_effects": st.lists(st.sampled_from([0.0, 0.1]), min_size=K, max_size=K),
        "correlations": st.lists(st.floats(-0.99, 0.99), max_size=3),
        "pca_repetitions": st.integers(1, 5),
    }
    assert set(config) | set(optional) == SCENARIO_KEYS
    # the keys a kind needs, mostly, and a few more, mostly of its own
    needed = {"two_sample": ["n_outcome"], "type1_power": ["null_effects"], "pca": ["correlations"], "pleiotropy": ["hidden_exposures", "hidden_effect_grid"]}.get(kind, [])
    own = KIND_KEYS.get(kind, SCENARIO_KEYS)
    if kind == "pca" and draw(st.integers(0, 9)) < 9:
        config = {key: value for key, value in config.items() if key in own}
    chosen = [key for key in needed if draw(st.integers(0, 9)) < 9]
    keys = sorted(optional if draw(st.integers(0, 4)) == 4 else set(optional) & own)
    chosen += draw(st.lists(st.sampled_from(keys), max_size=5, unique=True)) if keys else []
    for key in dict.fromkeys(chosen):
        wrong = JSON if key == "n_outcome" else WRONG
        config[key] = draw(_or_wrong(optional[key], wrong))
    dropped = draw(st.sampled_from([None] * 6 + ["true_effects", "n_samples", "genotypes", "seed"]))
    config.pop(dropped, None)
    return config


def run_simulate(content, *flags):
    """``mvmr simulate`` on a scenario file holding ``content`` (bytes, or
    JSON-encoded): its exit code, stderr and ``{file name: bytes}`` written."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scenario.json")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else json.dumps(content).encode())
        out_dir = os.path.join(directory, "out")
        argv = ["simulate", "--scenario", path, *flags, "--out", out_dir]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        written = {path.name: path.read_bytes() for path in sorted(pathlib.Path(out_dir).glob("*"))}
    return code, err.getvalue(), written


QUICK = ("--replicates", "1", "--max-failure-rate", "1")


@PROPERTY
@given(st.one_of(_scenario(), _scenario(), _scenario(), JSON))
def test_simulate_exits_with_a_documented_code(config):
    code, err, _ = run_simulate(config, *QUICK)
    assert code in (0, 2, 4)
    assert "Traceback" not in err


@st.composite
def _raw(draw):
    """Arbitrary bytes, or a near-valid scenario's JSON text with a byte
    that is not UTF-8 put in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    text = json.dumps(draw(_scenario())).encode()
    at = draw(st.integers(0, len(text)))
    return text[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + text[at:]


@PROPERTY
@given(_raw())
def test_raw_bytes_exit_with_a_documented_code(content):
    code, err, _ = run_simulate(content, *QUICK)
    assert code in (0, 2, 4)
    assert "Traceback" not in err
    try:
        content.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2 and err.startswith("error: scenario file ") and "is not UTF-8 text" in err


# one quick, valid file of each kind, and for each key the kind accepts
# a value other than the file's
MARKOV = {"mode": "markov", "mafs": [0.3, 0.25, 0.35], "successive_r": [0.4, 0.3]}
GAUSSIAN = {"mode": "gaussian", "ld": [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]}
SCENARIO = {"seed": 1, "estimators": ["ls"], "replicates": 3, "true_effects": [0.2, 0.6], "n_samples": 200, "genotypes": GAUSSIAN}
BASES = {
    "replicates": {**SCENARIO, "kind": "replicates"},
    "pleiotropy": {**SCENARIO, "kind": "pleiotropy", "hidden_exposures": [0], "hidden_effect_grid": [0.0, 0.1]},
    "two_sample": {**SCENARIO, "kind": "two_sample", "n_outcome": 300},
    "type1_power": {**SCENARIO, "kind": "type1_power", "null_effects": [0.0, 0.6]},
    "pca": {"kind": "pca", "seed": 1, "correlations": [0.3], "n_samples": 50, "pca_repetitions": 3},
}
SCENARIO_CHANGES = {
    "name": "renamed",
    "seed": 2,
    "estimators": ["gmm"],
    "replicates": 4,
    "true_effects": [0.2, 0.5],
    "n_samples": [200, 250],
    "n_outcome": 400,
    "genotypes": MARKOV,
    "effects": {"low": 0.2, "high": 0.4},
    "causal_instruments": [[0], [1, 2]],
    "noise_variance": 2.0,
    "instrument_subset": [0, 2],
    "ld_prune_r2": 0.1,
    "ld_choice": "reference",
    "ld_wishart_df": 50,
    "exposure_names": ["A", "B"],
}
CHANGES = {
    "replicates": {**SCENARIO_CHANGES, "conditional_f": True},
    "pleiotropy": {**SCENARIO_CHANGES, "hidden_exposures": [1], "hidden_effect_grid": [0.2]},
    "two_sample": SCENARIO_CHANGES,
    "type1_power": {**SCENARIO_CHANGES, "null_effects": [0.0, 0.5], "alpha": 0.5},
    "pca": {"seed": 2, "correlations": [0.5], "n_samples": 60, "pca_repetitions": 4},
}
# genotype mode -> a genotypes object for each of its tables, and for each key a value other than the object's
GENOTYPES = {
    "pair": [({"mode": "pair", "correlation": 0.5, "maf": 0.3}, {"correlation": 0.4, "maf": 0.2})],
    "gaussian_pair": [({"mode": "gaussian_pair", "correlation": 0.5}, {"correlation": 0.4})],
    "markov": [
        (MARKOV, {"mafs": [0.3, 0.3, 0.35], "successive_r": [0.4, 0.2]}),
        ({"mode": "markov", "fixture": "mras_esyt3"}, {"fixture": "adamts7_ctsh_mam"}),
    ],
    "gaussian": [
        (GAUSSIAN, {"ld": [[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]}),
        ({"mode": "gaussian", "fixture": "mras_esyt3"}, {"fixture": "adamts7_ctsh_mam"}),
    ],
}


@pytest.mark.parametrize("kind", sorted(simulate.SCENARIO_KINDS))
def test_every_accepted_key_reaches_its_runner(kind):
    """Changing any key a kind accepts changes what the run writes, or is refused."""
    assert set(CHANGES[kind]) == KIND_KEYS[kind] - {"kind"}
    code, err, base = run_simulate(BASES[kind])
    assert code == 0, err
    for key, value in CHANGES[kind].items():
        code, err, written = run_simulate({**BASES[kind], key: value})
        assert code == 2 or (code == 0 and written != base), (key, code, err)


@pytest.mark.parametrize("mode", sorted(simulate.GENOTYPE_MODES))
def test_every_accepted_genotype_key_reaches_the_scenario(mode):
    assert [set(keys) for keys, _ in simulate.GENOTYPE_MODES[mode]] == [set(changes) for _, changes in GENOTYPES[mode]]
    for genotypes, changes in GENOTYPES[mode]:
        code, err, base = run_simulate({**BASES["replicates"], "genotypes": genotypes})
        assert code == 0, err
        for key, value in changes.items():
            code, err, written = run_simulate({**BASES["replicates"], "genotypes": {**genotypes, key: value}})
            assert code == 2 or (code == 0 and written != base), (key, code, err)


FOREIGN_KEY = st.one_of(st.sampled_from(sorted(SCENARIO_KEYS | GENOTYPE_KEYS | {"bogus", "", "Kind"})), st.text(max_size=6))


@PROPERTY
@given(st.sampled_from(sorted(simulate.SCENARIO_KINDS)), FOREIGN_KEY, JSON)
def test_a_key_outside_its_kinds_table_is_refused(kind, key, value):
    if key in KIND_KEYS[kind]:
        return
    code, err, written = run_simulate({**BASES[kind], key: value})
    assert code == 2 and written == {}
    assert err.startswith(f"error: unknown {kind} scenario keys: [") and repr(key) in err


@PROPERTY
@given(st.sampled_from([(mode, genotypes) for mode, tables in sorted(GENOTYPES.items()) for genotypes, _ in tables]), FOREIGN_KEY, JSON)
def test_a_key_outside_its_genotype_modes_table_is_refused(mode_genotypes, key, value):
    mode, genotypes = mode_genotypes
    if key in genotypes or key == "mode":
        return
    code, err, written = run_simulate({**BASES["replicates"], "genotypes": {**genotypes, key: value}})
    assert code == 2 and written == {}
    # a list for "correlation" is read as a grid first, and refused as one
    assert err.startswith((f"error: unknown keys for {mode} genotypes", f"error: {mode} genotypes need ", "error: replicates scenario grids"))
    assert repr(key) in err
