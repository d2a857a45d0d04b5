"""Cross-cutting property-based tests (hypothesis).

These exercise invariants that tie layers together: synthesized logic vs.
the expression interpreter, bit-parallel vs. scalar simulation, three-valued
vs. two-valued evaluation, and statistical invariants of the FDR machinery.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection import CampaignResult, FlipFlopResult, wilson_interval
from repro.netlist import DEFAULT_LIBRARY
from repro.sim import CompiledSimulator, eval3, lane_mask
from repro.sim.logic import X, broadcast, extract_lane
from repro.synth import Module, Sig, synthesize
from repro.synth.expr import And, Const, Mux, Not, Or, Xor

from tests.test_wordlib import evaluate


# ------------------------------------------------------ random expressions

_LEAVES = [Sig("a"), Sig("b"), Sig("c"), Sig("d"), Const(0), Const(1)]


def expr_strategy(depth: int = 3):
    leaf = st.sampled_from(_LEAVES)
    if depth == 0:
        return leaf
    sub = expr_strategy(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda x: Not.of(x), sub),
        st.builds(lambda x, y: And.of(x, y), sub, sub),
        st.builds(lambda x, y: Or.of(x, y), sub, sub),
        st.builds(lambda x, y: Xor.of(x, y), sub, sub),
        st.builds(lambda s, x, y: Mux.of(s, x, y), sub, sub, sub),
    )


@given(expr=expr_strategy(), assignment=st.integers(0, 15))
@settings(max_examples=120, deadline=None)
def test_synthesized_expression_matches_interpreter(expr, assignment):
    """Any random expression, once mapped to gates, computes the same value."""
    m = Module("prop")
    for name in "abcd":
        m.input(name)
    m.output("y", expr)
    nl = synthesize(m)
    sim = CompiledSimulator(nl)
    env = {}
    for i, name in enumerate("abcd"):
        bit = (assignment >> i) & 1
        env[name] = bit
        sim.set_input(name, bit)
    sim.eval_comb()
    assert sim.get_bit("y") == evaluate(expr, env)


@given(expr=expr_strategy(), lanes=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_bit_parallel_equals_scalar_simulation(expr, lanes):
    """N-lane simulation equals N independent scalar simulations."""
    m = Module("lanes")
    for name in "abcd":
        m.input(name)
    m.output("y", expr)
    nl = synthesize(m)
    wide = CompiledSimulator(nl, n_lanes=lanes)
    rng = np.random.default_rng(lanes)
    lane_inputs = {name: int(rng.integers(0, 1 << lanes)) for name in "abcd"}
    for name, value in lane_inputs.items():
        wide.set_input_lanes(name, value)
    wide.eval_comb()
    wide_out = wide.get("y")
    narrow = CompiledSimulator(nl, n_lanes=1)
    for lane in range(lanes):
        for name, value in lane_inputs.items():
            narrow.set_input(name, (value >> lane) & 1)
        narrow.eval_comb()
        assert narrow.get_bit("y") == (wide_out >> lane) & 1


# ------------------------------------------------------------ three-valued


@given(st.sampled_from(sorted(n for n in DEFAULT_LIBRARY.cell_types
                              if DEFAULT_LIBRARY[n].function is not None
                              and DEFAULT_LIBRARY[n].inputs)),
       st.integers(0, 3**4 - 1))
@settings(max_examples=120, deadline=None)
def test_eval3_is_sound_abstraction(name, code):
    """If eval3 returns 0/1, every binary completion agrees with it."""
    ctype = DEFAULT_LIBRARY[name]
    k = len(ctype.inputs)
    inputs = []
    for i in range(k):
        inputs.append((code // (3**i)) % 3)
    result = eval3(ctype, inputs)
    x_positions = [i for i, v in enumerate(inputs) if v == X]
    completions = set()
    for bits in itertools.product((0, 1), repeat=len(x_positions)):
        concrete = list(inputs)
        for pos, bit in zip(x_positions, bits):
            concrete[pos] = bit
        completions.add(ctype.evaluate(concrete, mask=1))
    if result != X:
        assert completions == {result}
    else:
        assert len(completions) == 2


# ------------------------------------------------------------ logic utils


@given(st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_lane_mask_and_broadcast(n):
    mask = lane_mask(n)
    assert mask.bit_count() == n
    assert broadcast(1, mask) == mask
    assert broadcast(0, mask) == 0
    for lane in (0, n - 1):
        assert extract_lane(mask, lane) == 1


# -------------------------------------------------------------- statistics


@given(trials=st.integers(1, 500), successes=st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_wilson_interval_contains_point_estimate(trials, successes):
    successes = min(successes, trials)
    low, high = wilson_interval(successes, trials)
    p = successes / trials
    assert 0.0 <= low <= p <= high <= 1.0
    # More trials shrink the interval.
    low2, high2 = wilson_interval(successes * 2, trials * 2)
    assert (high2 - low2) <= (high - low) + 1e-12


@given(
    trials=st.integers(1, 500),
    successes=st.integers(0, 500),
    scale=st.integers(2, 16),
)
@settings(max_examples=80, deadline=None)
def test_wilson_interval_monotone_in_trials(trials, successes, scale):
    """At a fixed observed proportion, the interval shrinks with trials."""
    successes = min(successes, trials)
    low, high = wilson_interval(successes, trials)
    low_k, high_k = wilson_interval(successes * scale, trials * scale)
    assert (high_k - low_k) <= (high - low) + 1e-12


@given(
    trials=st.integers(1, 500),
    successes=st.integers(0, 500),
    confidence=st.floats(0.5, 0.999),
)
@settings(max_examples=80, deadline=None)
def test_wilson_interval_symmetric_under_success_failure_swap(
    trials, successes, confidence
):
    """Counting failures instead of successes mirrors the interval at 1/2."""
    successes = min(successes, trials)
    low, high = wilson_interval(successes, trials, confidence)
    swapped_low, swapped_high = wilson_interval(
        trials - successes, trials, confidence
    )
    assert swapped_low == pytest.approx(1.0 - high, abs=1e-9)
    assert swapped_high == pytest.approx(1.0 - low, abs=1e-9)


@given(confidence=st.floats(0.5, 0.999))
@settings(max_examples=30, deadline=None)
def test_wilson_interval_trivial_at_zero_trials(confidence):
    """No data -> the whole unit interval, at every confidence level."""
    assert wilson_interval(0, 0, confidence) == (0.0, 1.0)


@given(
    population=st.integers(1, 100_000),
    margin=st.floats(1e-4, 0.5),
    p=st.floats(1e-6, 1.0 - 1e-6),
)
@settings(max_examples=80, deadline=None)
def test_required_sample_size_stays_within_population(population, margin, p):
    from repro.faultinjection import required_sample_size

    n = required_sample_size(population, margin=margin, p=p)
    assert 1 <= n <= population
    # Infinite-universe sizing is an upper bound on every finite universe.
    assert n <= max(population, required_sample_size(None, margin=margin, p=p))


# ------------------------------------------------- result schema round trip


_ff_results = st.dictionaries(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
    ),
    st.tuples(st.integers(0, 500), st.integers(0, 500), st.integers(0, 10_000)),
    max_size=8,
)


@given(
    ffs=_ff_results,
    n_injections=st.integers(1, 500),
    seed=st.integers(0, 2**31),
    n_forward_runs=st.integers(0, 10_000),
    total_lane_cycles=st.integers(0, 10**9),
)
@settings(max_examples=60, deadline=None)
def test_campaign_result_json_round_trip(
    ffs, n_injections, seed, n_forward_runs, total_lane_cycles
):
    """to_json/from_json is the identity on every field the store relies on."""
    result = CampaignResult(
        circuit="prop", n_injections=n_injections, seed=seed,
        n_forward_runs=n_forward_runs, total_lane_cycles=total_lane_cycles,
    )
    for name, (inj, fail, lat) in ffs.items():
        fail = min(fail, inj)
        result.results[name] = FlipFlopResult(name, inj, fail, lat)
    payload = result.to_payload()
    assert payload["version"] == CampaignResult.SCHEMA_VERSION
    restored = CampaignResult.from_json(result.to_json())
    assert restored == result


def test_campaign_result_rejects_newer_schema():
    result = CampaignResult(circuit="c", n_injections=1, seed=0)
    payload = result.to_payload()
    payload["version"] = CampaignResult.SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="newer schema"):
        CampaignResult.from_payload(payload)


def test_campaign_result_reads_versionless_legacy_payload():
    payload = {"circuit": "c", "n_injections": 2, "seed": 0, "results": {"ff": [2, 1]}}
    restored = CampaignResult.from_payload(payload)
    assert restored.results["ff"].n_failures == 1
    assert restored.results["ff"].latency_sum == 0


# ----------------------------------------------------- dataset invariants


def test_fdr_labels_are_proportions(tiny_dataset, tiny_campaign):
    campaign = tiny_campaign
    for name, record in campaign.results.items():
        assert record.fdr * record.n_injections == pytest.approx(record.n_failures)
    assert np.all(tiny_dataset.y * campaign.n_injections % 1 < 1e-9)
