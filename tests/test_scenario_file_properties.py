"""Property test for the ``mvmr simulate --scenario`` file.

Whatever JSON a scenario file holds, ``mvmr simulate --scenario F
--replicates 1 --max-failure-rate 1`` ends with exit code 0, 2 (a
malformed scenario) or 4 (a numerical failure); no other exception
escapes.  The files drawn range from arbitrary JSON to near-valid
scenarios of every kind that set any of the keys in
``simulate._SCENARIO_KEYS``: index lists with negatives, booleans, floats
and duplicates, values of the wrong type, effect-size specifications and
both LD fields.

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
import tempfile

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
        config[draw(st.sampled_from(sorted(simulate._GENOTYPE_KEYS) + ["bogus"]))] = draw(WRONG)
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
    assert set(config) | set(optional) == simulate._SCENARIO_KEYS
    # the keys a kind needs, mostly, and a few more
    needed = {"two_sample": ["n_outcome"], "type1_power": ["null_effects"], "pca": ["correlations"]}.get(kind, [])
    chosen = [key for key in needed if draw(st.integers(0, 9)) < 9]
    chosen += draw(st.lists(st.sampled_from(sorted(optional)), max_size=5, unique=True))
    for key in dict.fromkeys(chosen):
        wrong = JSON if key == "n_outcome" else WRONG
        config[key] = draw(_or_wrong(optional[key], wrong))
    dropped = draw(st.sampled_from([None] * 6 + ["true_effects", "n_samples", "genotypes", "seed"]))
    config.pop(dropped, None)
    return config


@PROPERTY
@given(st.one_of(_scenario(), _scenario(), _scenario(), JSON))
def test_simulate_exits_with_a_documented_code(config):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = ["simulate", "--scenario", path, "--replicates", "1", "--max-failure-rate", "1", "--out", os.path.join(directory, "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 4)
    assert "Traceback" not in err.getvalue()
