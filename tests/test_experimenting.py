"""Tests for experiment design, biased sampling, and datasheet provenance."""

import csv
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktsim.errors import ConfigError
from ktsim.experimenting import (
    Dataset,
    ExperimentDesign,
    ExperimentSpec,
    Datasheet,
    Selection,
    design_experiment,
    export_dataset,
    largest_array_bytes,
    sample_dataset,
)
from ktsim.knowledge import GroundTruth, KnowledgeBase, all_pair_keys, build_ground_truth, split_keys
from ktsim.mining import phi_coefficient

from claimref import EMPTY, _kb, chain_gt, dependent


def full_design(gt, noise_rate=0.0, samples=10_000, selection=None):
    return ExperimentDesign(tuple(range(gt.m)), selection, noise_rate, samples)


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

def test_design_validation():
    with pytest.raises(ConfigError):
        ExperimentDesign((3,), None, 0.0, 10)
    with pytest.raises(ConfigError):
        ExperimentDesign((1, 2), Selection(5, 1), 0.0, 10)
    with pytest.raises(ConfigError):
        ExperimentDesign((1, 2), None, 0.5, 10)


@pytest.mark.parametrize(
    "design",
    [((3,), None, 0.0, 10), ((1, 2), Selection(5, 1), 0.0, 10), ((1, 2), None, 0.5, 10), ((1, 2), None, 0.0, 0)],
    ids=["one-variable", "selection-outside", "noise-half", "no-samples"],
)
def test_a_datasheet_passes_the_design_checks(design):
    # A datasheet is the design as executed, so it cannot record one that
    # could not have been executed.
    with pytest.raises(ConfigError):
        Datasheet(*design, team_id=0, seed_fingerprint="0" * 16)


def test_empty_kb_design_falls_back_to_uniform_variables():
    design = design_experiment(EMPTY, 30, ExperimentSpec(5, 0.0, 0.0, 100), np.random.default_rng(0))
    assert len(design.measured) == 5
    assert len(set(design.measured)) == 5
    assert design.selection is None


def test_design_measures_the_variables_of_dependent_claims():
    kb = _kb((dependent(2, 7), 0.9))
    design = design_experiment(kb, 10, ExperimentSpec(2, 0.0, 0.0, 100), np.random.default_rng(1))
    assert design.measured == (2, 7)


def test_selection_prob_one_always_attaches_a_condition():
    for seed in range(10):
        design = design_experiment(EMPTY, 12, ExperimentSpec(4, 1.0, 0.0, 50), np.random.default_rng(seed))
        assert design.selection is not None
        assert design.selection.variable in design.measured
        assert design.selection.value == 1


def test_design_grows_dependence_clusters_before_padding():
    # Claims form one connected component {0,1,2,3}; at width 4 the measured
    # set must be exactly that cluster, whatever the seed.
    kb = _kb((dependent(0, 1), 0.8), (dependent(1, 2), 0.8), (dependent(2, 3), 0.8))
    for seed in range(8):
        design = design_experiment(kb, 20, ExperimentSpec(4, 0.0, 0.0, 50), np.random.default_rng(seed))
        assert design.measured == (0, 1, 2, 3)


def test_design_width_bounds():
    with pytest.raises(ConfigError):
        design_experiment(EMPTY, 10, ExperimentSpec(11, 0.0, 0.0, 50), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        design_experiment(EMPTY, 10, ExperimentSpec(1, 0.0, 0.0, 50), np.random.default_rng(0))


def reference_design(team_kb, m, target_width, selection_prob, noise_rate, samples, rng):
    """``design_experiment`` as it was with a dict of neighbour sets built
    from every Dependent claim; the array version must draw the same."""
    neighbors = {}
    us, vs = split_keys(team_kb.keys[team_kb.dep])
    for u, v in zip(us.tolist(), vs.tolist()):
        neighbors.setdefault(u, set()).add(v)
        neighbors.setdefault(v, set()).add(u)

    measured = []
    chosen = set()
    unvisited = sorted(neighbors)
    while len(measured) < target_width and unvisited:
        seed_var = unvisited[int(rng.integers(len(unvisited)))]
        queue = [seed_var]
        while queue and len(measured) < target_width:
            var = queue.pop(0)
            if var in chosen:
                continue
            chosen.add(var)
            measured.append(var)
            queue.extend(sorted(neighbors.get(var, ()) - chosen))
        unvisited = [v for v in unvisited if v not in chosen]

    if len(measured) < target_width:
        pool = [v for v in range(m) if v not in chosen]
        extra = rng.choice(len(pool), size=target_width - len(measured), replace=False)
        measured.extend(pool[int(i)] for i in extra)

    measured_t = tuple(sorted(measured))
    selection = None
    if float(rng.random()) < selection_prob:
        selection = Selection(measured_t[int(rng.integers(len(measured_t)))], 1)
    return ExperimentDesign(measured_t, selection, noise_rate, samples)


@st.composite
def design_cases(draw):
    """A team base over m variables, sparse to dense, with both polarities."""
    m = draw(st.integers(2, 40))
    graph = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = all_pair_keys(m)
    held = graph.random(len(keys)) < draw(st.floats(0.0, 1.0))
    dep = graph.random(len(keys)) < draw(st.floats(0.0, 1.0))
    kb = KnowledgeBase.from_arrays(keys[held], dep[held], np.full(int(held.sum()), 0.9))
    return kb, m, draw(st.integers(2, m)), draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(design_cases())
def test_design_matches_the_neighbour_set_reference(case):
    kb, m, width, selection_prob, seed = case
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert design_experiment(kb, m, ExperimentSpec(width, selection_prob, 0.1, 100), fast) == reference_design(
        kb, m, width, selection_prob, 0.1, 100, slow
    )
    assert fast.bit_generator.state == slow.bit_generator.state


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_dataset_dimensions_and_binary_entries():
    gt = build_ground_truth(12, 3, 0.9, np.random.default_rng(2))
    design = ExperimentDesign((0, 3, 5, 7), None, 0.1, 500, )
    ds, sheet = sample_dataset(gt, design, np.random.default_rng(3), team_id=4)
    assert ds.rows.shape == (500, 4)
    assert set(np.unique(ds.rows)) <= {0, 1}
    assert sheet.team_id == 4
    assert sheet.measured == design.measured
    assert sheet.noise_rate == design.noise_rate
    assert sheet.samples == 500
    assert sheet.seed_fingerprint


def test_sampling_is_deterministic_for_identical_seed():
    gt = build_ground_truth(10, 2, 0.85, np.random.default_rng(4))
    design = full_design(gt, noise_rate=0.05, samples=800, selection=Selection(2, 1))
    a, _ = sample_dataset(gt, design, np.random.default_rng(42))
    b, _ = sample_dataset(gt, design, np.random.default_rng(42))
    assert a.sha256() == b.sha256()


def test_single_column_marginal_is_one_half():
    gt = chain_gt(4)
    ds, _ = sample_dataset(gt, full_design(gt), np.random.default_rng(5))
    for v in range(4):
        assert 0.47 <= ds.column(v).mean() <= 0.53


@pytest.mark.parametrize("dist", [1, 2, 3])
def test_chain_phi_follows_the_distance_law(dist):
    gt = chain_gt(4, p_stay=0.9)
    ds, _ = sample_dataset(gt, full_design(gt, samples=100_000), np.random.default_rng(6 + dist))
    expected = 0.8 ** dist
    assert phi_coefficient(ds, 0, dist) == pytest.approx(expected, abs=0.015)


def test_adjacent_pair_phi_with_and_without_noise():
    gt = chain_gt(2, p_stay=0.9)
    clean, _ = sample_dataset(gt, full_design(gt, samples=100_000), np.random.default_rng(7))
    assert phi_coefficient(clean, 0, 1) == pytest.approx(0.8, abs=0.01)
    noisy, _ = sample_dataset(gt, full_design(gt, noise_rate=0.1, samples=100_000), np.random.default_rng(8))
    assert phi_coefficient(noisy, 0, 1) == pytest.approx(0.8 * 0.64, abs=0.01)


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
def test_noise_attenuates_phi_by_the_squared_flip_factor(delta):
    gt = chain_gt(2, p_stay=0.9)
    seed = int(delta * 100)
    clean, _ = sample_dataset(gt, full_design(gt, samples=100_000), np.random.default_rng(seed))
    noisy, _ = sample_dataset(gt, full_design(gt, noise_rate=delta, samples=100_000), np.random.default_rng(seed + 1))
    ratio = phi_coefficient(noisy, 0, 1) / phi_coefficient(clean, 0, 1)
    assert ratio == pytest.approx((1 - 2 * delta) ** 2, abs=0.03)


def test_different_trees_show_no_association():
    parents = (None, 0, None, 2)  # two 2-node trees
    gt = GroundTruth(4, parents, 0.9)
    ds, _ = sample_dataset(gt, full_design(gt, samples=100_000), np.random.default_rng(9))
    assert abs(phi_coefficient(ds, 0, 2)) < 0.02
    assert abs(phi_coefficient(ds, 1, 3)) < 0.02


def test_selection_masks_dependence_across_the_conditioned_variable():
    # Path 0-1-2 crosses variable 1; conditioning on it severs the 0-2 link.
    gt = chain_gt(3, p_stay=0.9)
    design = full_design(gt, samples=100_000, selection=Selection(1, 1))
    ds, sheet = sample_dataset(gt, design, np.random.default_rng(10))
    assert abs(phi_coefficient(ds, 0, 2)) < 0.03
    assert sheet.selection == Selection(1, 1)
    # Pre-noise the selected column is constant.
    assert int(ds.column(1).sum()) == ds.n


@pytest.mark.parametrize("samples", [1, 100_000])
@pytest.mark.parametrize("value", [0, 1])
def test_selection_design_returns_exactly_the_requested_rows(samples, value):
    gt = chain_gt(6, p_stay=0.9)
    design = full_design(gt, samples=samples, selection=Selection(4, value))
    ds, _ = sample_dataset(gt, design, np.random.default_rng(13))
    assert ds.n == samples
    assert np.all(ds.column(4) == value)


def test_noise_may_flip_the_selected_column():
    gt = chain_gt(3, p_stay=0.9)
    design = full_design(gt, noise_rate=0.1, samples=20_000, selection=Selection(1, 1))
    ds, _ = sample_dataset(gt, design, np.random.default_rng(11))
    frac_ones = ds.column(1).mean()
    assert frac_ones == pytest.approx(0.9, abs=0.02)


def test_sample_dataset_rejects_out_of_range_variables():
    gt = chain_gt(3)
    design = ExperimentDesign((0, 5), None, 0.0, 10)
    with pytest.raises(ConfigError):
        sample_dataset(gt, design, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_export_writes_csv_and_datasheet_sidecar(tmp_path):
    gt = chain_gt(3)
    design = full_design(gt, samples=20, selection=Selection(0, 1))
    ds, sheet = sample_dataset(gt, design, np.random.default_rng(12), team_id=1)
    sidecar = export_dataset(ds, sheet, tmp_path / "team1.csv")
    lines = (tmp_path / "team1.csv").read_text().strip().splitlines()
    assert lines[0] == "0,1,2"
    assert len(lines) == 21
    assert set("".join(lines[1:]).replace(",", "")) <= {"0", "1"}
    payload = json.loads(sidecar.read_text())
    assert payload["team_id"] == 1
    assert payload["selection"] == {"variable": 0, "value": 1}
    assert payload["noise_rate"] == 0.0
    assert sidecar.name == "team1.datasheet.json"


def _peak_bytes(call):
    """``call()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_writes_rows_in_blocks_and_the_same_bytes(tmp_path):
    # Many blocks, the last one short. ``csv.writer`` fed ``rows.tolist()``
    # peaks near 9x rows.nbytes; the reference below writes that way.
    rows = np.random.default_rng(4).integers(0, 2, size=(20_000, 48), dtype=np.uint8)
    ds = Dataset(range(48), rows)
    sheet = Datasheet(ds.columns, None, 0.0, ds.n, team_id=0, seed_fingerprint="0" * 16)
    _, peak = _peak_bytes(lambda: export_dataset(ds, sheet, tmp_path / "team0.csv"))
    assert peak < 2 * rows.nbytes
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(ds.columns)
    writer.writerows(rows.tolist())
    assert (tmp_path / "team0.csv").read_bytes() == expected.getvalue().encode()


def test_dataset_column_lookup_errors_on_unmeasured_variable():
    ds = Dataset((0, 2), np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(ConfigError):
        ds.column(1)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[256, 1]]),
        np.array([[257, 1]]),
        np.array([[-255, 0]]),
        np.array([[0.9, 1.0]]),
        np.array([[2, 0]], dtype=np.uint8),
        [[256, 1]],
        [[-1, 0]],
    ],
)
def test_dataset_rejects_every_entry_but_0_and_1(rows):
    with pytest.raises(ConfigError, match="0 or 1"):
        Dataset((0, 1), rows)


def test_dataset_takes_bools_and_0_1_integers_and_keeps_uint8_rows_uncopied():
    assert Dataset((0, 1), np.array([[True, False]])).rows.tolist() == [[1, 0]]
    assert Dataset((0, 1), [[0, 1], [1, 1]]).rows.tolist() == [[0, 1], [1, 1]]
    rows = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    dataset = Dataset((0, 1), rows)
    assert np.shares_memory(dataset.rows, rows)
    assert not dataset.rows.flags.writeable
    # The dataset freezes its own view; the caller's array stays writable.
    rows[0, 0] = 1
    assert dataset.rows[0, 0] == 1


def test_blocked_noise_flips_match_one_whole_array_draw():
    # More noisy rows than one flip block, and not a multiple of it.
    gt = build_ground_truth(12, 3, 0.9, np.random.default_rng(3))
    design = ExperimentDesign((1, 4, 5, 9), None, 0.2, 2 * 8192 + 1001)
    rng = np.random.default_rng(11)
    dataset, _ = sample_dataset(gt, design, rng)

    reference = np.random.default_rng(11)
    closure = ancestral_closure(gt, design.measured)
    full = np.zeros((design.samples, gt.m), dtype=np.uint8)
    for v in (v for v in gt.topo_order if v in closure):
        parent = gt.parents[v]
        if parent is None:
            full[:, v] = reference.integers(0, 2, size=design.samples, dtype=np.uint8)
        else:
            full[:, v] = full[:, parent] ^ (reference.random(design.samples) < 1.0 - gt.p_stay).astype(np.uint8)
    measured = full[:, list(design.measured)]
    measured ^= (reference.random(measured.shape) < design.noise_rate).astype(np.uint8)
    assert np.array_equal(dataset.rows, measured)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_sampling_memory_stays_within_the_largest_array_plus_one_mib():
    # At m=300 an 8192-row noise block over all m variables took 12 MiB for
    # 5000 rows, 3.6x the (m, rows) table; a block is now at most 1 MiB.
    gt = build_ground_truth(300, 3, 0.9, np.random.default_rng(5))
    design = ExperimentDesign(tuple(range(0, 300, 37)), Selection(74, 1), 0.1, 5000)
    (dataset, _), peak = _peak_bytes(lambda: sample_dataset(gt, design, np.random.default_rng(6)))
    assert dataset.n == 5000
    assert peak <= largest_array_bytes(gt.m, design.samples) + 2**20
    # Only the measured variables and their ancestors get a row of the
    # first round's table, which draws 2.2 times the samples plus 8.
    closure = ancestral_closure(gt, design.measured)
    assert len(closure) < gt.m
    assert peak <= len(closure) * (int(5000 * 2.2) + 8) + 2**20


# ---------------------------------------------------------------------------
# The column-major sampler against row-major references
# ---------------------------------------------------------------------------

def ancestral_closure(gt, variables):
    """``variables`` and every ancestor of one, as a set."""
    closure = set()
    for v in variables:
        while v is not None and v not in closure:
            closure.add(v)
            v = gt.parents[v]
    return closure


def _reference_full_rows(gt, count, rng, drawn=None):
    """``count`` row-major draws of every variable, in ``gt.topo_order``;
    variables outside ``drawn`` (when given) draw nothing and read 0."""
    rows = np.zeros((count, gt.m), dtype=np.uint8)
    flip_prob = 1.0 - gt.p_stay
    for v in gt.topo_order:
        if drawn is not None and v not in drawn:
            continue
        parent = gt.parents[v]
        if parent is None:
            rows[:, v] = rng.integers(0, 2, size=count, dtype=np.uint8)
        else:
            flips = rng.random(count) < flip_prob
            rows[:, v] = rows[:, parent] ^ flips.astype(np.uint8)
    return rows


def _reference_fingerprint(rng):
    blob = json.dumps(rng.bit_generator.state, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _reference_accepted(gt, design, rng, drawn):
    """Full rows, rejection-resampled in rounds until ``design.samples`` pass."""
    selection = design.selection
    need = design.samples
    parts = []
    while need > 0:
        batch = need if selection is None else max(64, int(need * 2.2) + 8)
        full = _reference_full_rows(gt, batch, rng, drawn)
        if selection is not None:
            full = full[full[:, selection.variable] == selection.value]
        full = full[:need]
        parts.append(full)
        need -= full.shape[0]
    return np.concatenate(parts)


def row_major_reference_sample(gt, design, rng):
    """The sampler as it once was: full rows of every variable,
    rejection-resampled, noised in blocks of 8192 rows over all m columns,
    then projected onto the measured ones. It draws more than the sampler
    does now; a design that measures every variable in ascending order draws
    the same."""
    fingerprint = _reference_fingerprint(rng)
    accepted = _reference_accepted(gt, design, rng, None)
    if design.noise_rate > 0.0:
        for start in range(0, accepted.shape[0], 8192):
            block = accepted[start:start + 8192]
            block ^= rng.random(block.shape) < design.noise_rate
    sheet = Datasheet(design.measured, design.selection, design.noise_rate, design.samples, 0, fingerprint)
    return accepted[:, list(design.measured)], sheet


def reference_sample(gt, design, rng):
    """Full rows of the measured variables and their ancestors only,
    rejection-resampled, projected onto the measured columns in design
    order, then noised in blocks of 8192 rows over those columns alone."""
    fingerprint = _reference_fingerprint(rng)
    accepted = _reference_accepted(gt, design, rng, ancestral_closure(gt, design.measured))
    rows = accepted[:, list(design.measured)]
    if design.noise_rate > 0.0:
        for start in range(0, rows.shape[0], 8192):
            block = rows[start:start + 8192]
            block ^= rng.random(block.shape) < design.noise_rate
    sheet = Datasheet(design.measured, design.selection, design.noise_rate, design.samples, 0, fingerprint)
    return rows, sheet


@st.composite
def sampling_cases(draw):
    """(m, tree_count, design, seed): any forest shape, measured columns in
    any order, no selection or a selection on value 0 or 1, noise 0 or 0.1."""
    m = draw(st.integers(2, 12))
    measured = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m, unique=True))
    value = draw(st.sampled_from([None, 0, 1]))
    selection = None if value is None else Selection(draw(st.sampled_from(measured)), value)
    noise = draw(st.sampled_from([0.0, 0.1]))
    design = ExperimentDesign(tuple(measured), selection, noise, draw(st.integers(1, 3000)))
    return m, draw(st.integers(1, m)), design, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(sampling_cases())
@example((12, 3, ExperimentDesign(tuple(range(12)), Selection(4, 1), 0.1, 8193), 1))
@example((7, 2, ExperimentDesign((6, 0, 3), Selection(3, 0), 0.1, 20_000), 2))
@example((9, 9, ExperimentDesign((8, 1, 2, 5), None, 0.1, 20_000), 3))
def test_sampler_matches_the_row_major_reference(case):
    m, tree_count, design, seed = case
    gt = build_ground_truth(m, tree_count, 0.9, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    reference = np.random.default_rng(seed + 1)
    dataset, sheet = sample_dataset(gt, design, rng)
    rows, ref_sheet = reference_sample(gt, design, reference)
    assert dataset.rows.dtype == np.uint8 and dataset.rows.flags.c_contiguous
    assert np.array_equal(dataset.rows, rows)
    assert sheet == ref_sheet
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
    st.sampled_from([None, 0, 1]),
    st.sampled_from([0.0, 0.1]),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
@example((12, 3), 1, 0.1, 8193, 1)
def test_measuring_every_variable_in_order_draws_what_the_row_major_sampler_did(
    shape, value, noise, samples, seed
):
    # Every variable is measured, so none is left out, and the flips of one
    # row are the flips of a full row: the stream is the old one, byte for byte.
    m, tree_count = shape
    gt = build_ground_truth(m, tree_count, 0.9, np.random.default_rng(seed))
    selection = None if value is None else Selection(seed % m, value)
    design = full_design(gt, noise_rate=noise, samples=samples, selection=selection)
    rng = np.random.default_rng(seed + 1)
    reference = np.random.default_rng(seed + 1)
    dataset, sheet = sample_dataset(gt, design, rng)
    rows, ref_sheet = row_major_reference_sample(gt, design, reference)
    assert np.array_equal(dataset.rows, rows)
    assert sheet == ref_sheet
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(("samples", "error"), [(139748061164466280, MemoryError), (139748061164466281, ValueError)])
def test_the_validated_samples_limit_is_where_numpy_stops_describing_the_table(samples, error):
    # At m=30 with a selection, 139748061164466280 samples is the last count
    # config validation accepts. numpy can describe that table, so it fails
    # to allocate it (MemoryError); one more sample makes it indescribable.
    gt = chain_gt(30)
    design = full_design(gt, samples=samples, selection=Selection(0, 1))
    with pytest.raises(error):
        sample_dataset(gt, design, np.random.default_rng(0))
