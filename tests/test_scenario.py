import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttertrack.deepda import NetConfig, encode_groups
from cluttertrack.domain import (
    CLUTTER,
    CapacityError,
    ConfigError,
    Scan,
    ScenarioConfig,
    five_crossing_targets,
)
from cluttertrack.scenario import (
    SCANS_CSV_HEADER,
    TRUTH_CSV_HEADER,
    TrainingSet,
    _scan_states,
    generate_scans,
    generate_truth,
    make_training_set,
    read_scans_csv,
    read_truth_states,
    seeded_variants,
    write_scans_csv,
    write_truth_csv,
)

from oracles import scenario_by_loops


def test_truth_first_step_matches_hand_values(reference_config):
    truth = generate_truth(reference_config)
    assert np.allclose(truth.states[0, 0], [5.0, 1.0, 11.0, 0.4])
    assert np.allclose(truth.states[1, 0], [6.0, 1.0, 11.4, 0.4])


def test_truth_zero_velocity_component(reference_config):
    truth = generate_truth(reference_config)
    # target 3 has vy = 0
    assert np.allclose(truth.states[:, 2, 2], 15.0)


def test_truth_crossing_near_scan_ten(reference_config):
    truth = generate_truth(reference_config)
    y1 = truth.states[10, 0, 2]
    y5 = truth.states[10, 4, 2]
    assert y1 == pytest.approx(15.0, abs=1e-9)
    assert y5 == pytest.approx(15.0, abs=1e-9)


def test_truth_is_pure(reference_config):
    a = generate_truth(reference_config)
    b = generate_truth(reference_config)
    assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("dt", [1.0, 0.1])
@pytest.mark.parametrize("targets", [1, 5])
def test_truth_steps_exactly_by_constant_velocity(reference_config, dt, targets):
    # Each position is the previous one plus v * dt, bit for bit; velocities hold.
    config = replace(reference_config, initial_states=reference_config.initial_states[:targets], dt=dt)
    states = generate_truth(config).states
    assert states.shape == (config.num_scans, targets, 4)
    stepped = states[:-1].copy()
    stepped[:, :, ::2] += stepped[:, :, 1::2] * dt
    assert np.array_equal(stepped, states[1:])
    assert np.array_equal(states[0], np.array(config.initial_states))


def test_scans_degenerate_noise_free(clean_config):
    truth = generate_truth(clean_config)
    scans = generate_scans(truth, 7)
    for k, scan in enumerate(scans):
        assert scan.num_measurements == 5
        order = np.argsort(scan.origins)
        assert np.array_equal(scan.measurements[order], truth.states[k][:, [0, 2]])


def test_scans_bit_reproducible(reference_config):
    truth = generate_truth(reference_config)
    a = generate_scans(truth, 99)
    b = generate_scans(truth, 99)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.measurements, s2.measurements)
        assert s1.origins == s2.origins


def test_scans_differ_across_seeds(reference_config):
    truth = generate_truth(reference_config)
    a = generate_scans(truth, 1)
    b = generate_scans(truth, 2)
    assert not np.array_equal(a[0].measurements, b[0].measurements)


def test_scans_detection_and_clutter_statistics(reference_config):
    truth = generate_truth(reference_config)
    detections = clutter = scans_total = 0
    for seed in range(50):
        for scan in generate_scans(truth, seed):
            labels = [o for o in scan.origins if o != CLUTTER]
            detections += len(labels)
            clutter += scan.num_measurements - len(labels)
            scans_total += 1
    # loose 4-sigma bands; the tight 3-sigma version runs in acceptance
    det_rate = detections / (scans_total * 5)
    se = np.sqrt(0.9 * 0.1 / (scans_total * 5))
    assert abs(det_rate - 0.9) < 4 * se
    clutter_rate = clutter / scans_total
    assert abs(clutter_rate - 20.0) < 4 * np.sqrt(20.0 / scans_total)


def test_scans_labels_point_at_targets(reference_config):
    truth = generate_truth(reference_config)
    for scan in generate_scans(truth, 5):
        for i, origin in enumerate(scan.origins):
            if origin == CLUTTER:
                continue
            err = np.linalg.norm(scan.measurements[i] - truth.states[scan.k][:, [0, 2]][origin])
            assert err < 6 * 0.3162


def test_scan_order_is_shuffled(reference_config):
    truth = generate_truth(reference_config)
    scans = generate_scans(truth, 3)
    unsorted = 0
    for scan in scans:
        labels = [o for o in scan.origins if o != CLUTTER]
        if labels != sorted(labels):
            unsorted += 1
    assert unsorted > 0


def sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


SIGNED_ZERO_SCENARIO = ScenarioConfig(
    initial_states=((5.0, -0.0, 11.0, 0.4), (6.0, 1.3, 15.0, -0.0), (7.0, 0.7, 12.0, -0.3)),
    dt=0.7,
    num_scans=12,
    e_lambda=5.0,
)


# The simulation stream is part of the output format: one SeedSequence(seed,
# spawn_key=(k,)) generator per scan, drawn in a fixed order. These digests
# were recorded from the scan-by-scan loop that oracles.scenario_by_loops keeps.
@pytest.mark.parametrize(
    "p_d, e_lambda, seed, counts, digest",
    [
        (0.9, 20.0, 7, [26, 21, 16, 21, 29, 23, 20, 19, 26, 28, 23, 26, 22, 20, 28, 19, 33, 27, 22, 29],
         "458808046d1e69ba42e2136e716d8a324fccc3b45285ea6d8a9a18090f930874"),
        (0.9, 20.0, (1907, 3), [17, 30, 29, 24, 20, 29, 27, 26, 21, 28, 25, 17, 32, 20, 15, 27, 21, 27, 21, 28],
         "64828cd5b4a2c56f5f784796bc2d08c22c027ff00eb76257ddbeb7070289c085"),
        # Scan 14 is empty.
        (0.5, 0.0, 1, [3, 3, 3, 2, 2, 4, 3, 3, 2, 5, 1, 3, 4, 3, 0, 4, 4, 1, 2, 1],
         "fe85fd9787dd1155b038a49978fca7cb505e366a519f69e14296724132f30b89"),
        (0.9, 40.0, 2, [39, 42, 53, 39, 66, 45, 34, 46, 38, 37, 49, 39, 56, 54, 47, 30, 37, 51, 59, 31],
         "869d380779ce5bb83ccd3fec26f207a50341dc58c52e9e45ab9cfc4f78c3bedf"),
    ],
)
def test_scans_stream_is_pinned(p_d, e_lambda, seed, counts, digest):
    scans = generate_scans(generate_truth(five_crossing_targets(p_d=p_d, e_lambda=e_lambda)), seed)
    assert [s.num_measurements for s in scans] == counts
    chunks = [c for s in scans for c in (s.measurements.tobytes(), s.origins)]
    assert sha256(*chunks) == digest


def test_truth_is_pinned_and_keeps_signed_zero_velocities():
    states = generate_truth(SIGNED_ZERO_SCENARIO).states
    assert np.signbit(states[:, 0, 1]).all()
    assert np.signbit(states[:, 1, 3]).all()
    assert not np.signbit(states[:, 0, 3]).any()
    assert states[-1].tolist() == [
        [5.0, -0.0, 14.079999999999993, 0.4],
        [16.01, 1.3, 15.0, -0.0],
        [12.390000000000002, 0.7, 9.68999999999999, -0.3],
    ]
    assert sha256(states.tobytes()) == "b35184aaff7f9b24bea148150adf64caca1742b2bca0a4c27215c9facde5ba72"


def test_training_set_is_pinned():
    ds = make_training_set(seeded_variants(five_crossing_targets(seed=32), 4))
    assert (ds.m_max, len(ds)) == (33, 76)
    chunks = [
        c for g in ds.groups for c in (g.pred_meas.tobytes(), g.measurements.tobytes(), g.labels)
    ]
    assert sha256(*chunks) == "7757f8fc314becc1609a449d5b9c2b6ace83a8ebcb3e07424b4ce4ad3a1634f1"


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "config",
    [five_crossing_targets(p_d, e_lambda) for p_d in (0.5, 0.9, 1.0) for e_lambda in (0.0, 20.0, 40.0)]
    + [SIGNED_ZERO_SCENARIO],
)
@pytest.mark.parametrize(
    "seed", [0, 1, 23, (1907, 3), (4242, 0, 1, 2), 2**40 + 5, (1, 2, 3, 4, 5), np.int64(9)]
)
def test_simulation_has_the_bits_of_the_loop_reference(config, seed):
    states, scans, groups = scenario_by_loops(config, seed)
    assert_same_bits(generate_truth(config).states, states)
    for scan, (measurements, origins) in zip(generate_scans(generate_truth(config), seed), scans, strict=True):
        assert_same_bits(scan.measurements, measurements)
        assert scan.origins == origins
    # A training set simulates each config with its own seed, an integer.
    if isinstance(seed, int):
        ds = make_training_set([replace(config, seed=seed)])
        for group, (pred_meas, measurements, labels) in zip(ds.groups, groups, strict=True):
            assert_same_bits(group.pred_meas, pred_meas)
            assert_same_bits(group.measurements, measurements)
            assert group.labels == labels


# Int seeds of 1 to 5 words, and tuples of 1 to 6 ints of up to 3 words
# each: the words past the pool's four are mixed in before the key.
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**160 - 1),
        st.lists(st.integers(0, 2**70), min_size=1, max_size=6).map(tuple),
    ),
    st.integers(1, 40),
)
def test_scan_states_are_the_spawned_seed_sequence_words(seed, num_scans):
    expected = [
        np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64) for k in range(num_scans)
    ]
    states = _scan_states(seed, num_scans)
    assert states.dtype == np.uint64
    assert np.array_equal(states, np.array(expected))


@pytest.mark.parametrize("seed", [-1, (3, -2)])
def test_negative_seed_raises_numpys_value_error(reference_config, seed):
    with pytest.raises(ValueError) as numpys:
        np.random.SeedSequence(seed)
    with pytest.raises(ValueError) as ours:
        generate_scans(generate_truth(reference_config), seed)
    assert str(ours.value) == str(numpys.value)


def truth_rows(ds, group, m_max=None):
    """The one-hot rows the network is trained on, over m_max slots (default
    ds.m_max) plus a miss."""
    stack, _, _ = encode_groups([group], NetConfig(m_max=m_max or ds.m_max))
    return stack.truth[0]


def test_training_set_one_hot_layout(clean_config):
    ds = make_training_set([clean_config])
    # No clutter and no misses: every scan holds one measurement per target.
    assert ds.m_max == 5
    # A network with a slot to spare takes the set, and pads that slot.
    encode_groups(ds.groups, NetConfig(m_max=6))
    group = ds.groups[0]
    rows = truth_rows(ds, group, m_max=6)
    assert rows.shape == (5, 7)
    assert not rows[:, 5].any()
    assert np.allclose(rows.sum(axis=1), 1.0)
    for t, label in enumerate(group.labels):
        assert label >= 0
        assert rows[t, label] == 1.0


def test_training_set_miss_row():
    cfg = five_crossing_targets(p_d=0.9, e_lambda=0.0, seed=4)
    ds = make_training_set([cfg])
    miss_rows = 0
    for g in ds.groups:
        rows = truth_rows(ds, g)
        for t, label in enumerate(g.labels):
            if label < 0:
                miss_rows += 1
                assert rows[t, ds.m_max] == 1.0
                assert rows[t, : ds.m_max].sum() == 0.0
    assert miss_rows > 0


def test_training_set_m_max_is_its_largest_scan_at_least_one(clean_config):
    # Read off the groups, so it cannot disagree with them.
    quiet = make_training_set([replace(clean_config, p_d=1e-9)])
    assert all(len(g.measurements) == 0 for g in quiet.groups)
    assert quiet.m_max == 1
    mixed = TrainingSet(quiet.groups + make_training_set([clean_config]).groups[:1])
    assert mixed.m_max == 5


def test_training_set_capacity_guard(reference_config):
    ds = make_training_set([reference_config])
    # The first scan over the network's capacity names its size.
    first = next(g.measurements.shape[0] for g in ds.groups if g.measurements.shape[0] > 3)
    with pytest.raises(CapacityError, match=f"^scan has {first} measurements, capacity is m_max=3$"):
        encode_groups(ds.groups, NetConfig(m_max=3))


def test_training_set_and_variants_refuse_to_be_empty(reference_config):
    with pytest.raises(ConfigError, match="^make_training_set needs at least one scenario config$"):
        make_training_set([])
    with pytest.raises(ConfigError, match="^variant count must be >= 1, got 0$"):
        seeded_variants(reference_config, 0)


def test_training_set_group_count(reference_config):
    ds = make_training_set(seeded_variants(reference_config, 3))
    assert len(ds) == 3 * (reference_config.num_scans - 1)


def test_csv_round_trip(tmp_path, reference_config):
    truth = generate_truth(reference_config)
    scans = generate_scans(truth, 11)
    scans_path = tmp_path / "scans.csv"
    truth_path = tmp_path / "truth.csv"
    write_scans_csv(scans, scans_path)
    write_truth_csv(truth, truth_path)

    header = scans_path.read_text().splitlines()[0]
    assert header == ",".join(SCANS_CSV_HEADER)
    assert truth_path.read_text().splitlines()[0] == ",".join(TRUTH_CSV_HEADER)

    restored = read_scans_csv(scans_path)
    assert len(restored) == len(scans)
    for a, b in zip(scans, restored):
        assert a.k == b.k
        assert np.array_equal(a.measurements, b.measurements)
        assert a.origins == b.origins

    states = read_truth_states(truth_path)
    assert np.array_equal(states, truth.states)


@pytest.mark.parametrize("labeled", [True, False])
def test_csv_round_trip_keeps_empty_scans(tmp_path, labeled):
    def scan(k, meas, origins):
        return Scan(k=k, measurements=np.array(meas), origins=origins if labeled else None)

    scans = [
        scan(0, [[1.0, 2.0], [3.5, -0.25]], (CLUTTER, 0)),
        scan(1, [], ()),
        scan(2, [[0.1, 0.2]], (1,)),
        scan(3, [], ()),
    ]
    path = tmp_path / "scans.csv"
    write_scans_csv(scans, path)
    restored = read_scans_csv(path)
    assert len(restored) == len(scans)
    for a, b in zip(scans, restored):
        assert a.k == b.k
        assert b.measurements.shape == a.measurements.shape
        assert np.array_equal(a.measurements, b.measurements)
        assert a.origins == b.origins
    assert restored[3].measurements.shape == (0, 2)


def test_truth_csv_has_plain_float_text(tmp_path, reference_config):
    truth = generate_truth(reference_config)
    path = tmp_path / "truth.csv"
    write_truth_csv(truth, path)
    assert "np.float64(" not in path.read_text()
    assert path.read_text().splitlines()[1] == "0,0,5.0,1.0,11.0,0.4"


def test_read_truth_rejects_numpy_scalar_repr(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(
        ",".join(TRUTH_CSV_HEADER)
        + "\n0,0,np.float64(5.0),np.float64(1.0),np.float64(11.0),np.float64(0.4)\n"
    )
    with pytest.raises(ConfigError, match=r"truth\.csv, line 2"):
        read_truth_states(path)


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_read_truth_rejects_non_finite_number(tmp_path, value):
    path = tmp_path / "truth.csv"
    path.write_text(
        ",".join(TRUTH_CSV_HEADER) + "\n0,0,5.0,1.0,11.0,0.4\n" + f"0,1,5.0,{value},9.0,0.4\n"
    )
    with pytest.raises(ConfigError, match=r"truth\.csv, line 3: .*non-finite"):
        read_truth_states(path)


@pytest.mark.parametrize(
    "row",
    [
        "x,0,1.0,2.0,-1",
        "0,0,1.0,2.0",
        "0,0,1.0,oops,-1",
        "0,,1.0,2.0,",
        "0,1,nan,2.0,-1",
        "0,1,1.0,inf,-1",
        "0,1,1.0,2.0,-3",
    ],
)
def test_read_scans_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "scans.csv"
    path.write_text(",".join(SCANS_CSV_HEADER) + "\n0,0,1.0,2.0,-1\n" + row + "\n")
    with pytest.raises(ConfigError, match=r"scans\.csv, line 3"):
        read_scans_csv(path)


def test_read_scans_rejects_scan_with_mixed_labels(tmp_path):
    path = tmp_path / "scans.csv"
    path.write_text(",".join(SCANS_CSV_HEADER) + "\n0,0,1.0,2.0,-1\n0,1,3.0,4.0,\n")
    with pytest.raises(ConfigError, match="scan 0 mixes labeled and unlabeled rows"):
        read_scans_csv(path)


@pytest.mark.parametrize(
    "rows",
    [
        ["0,,,,", "0,0,1.0,2.0,-1"],
        ["0,0,1.0,2.0,-1", "0,,,,"],
        ["0,,,,", "0,,,,"],
    ],
    ids=["empty-row-first", "empty-row-last", "repeated-empty-row"],
)
def test_read_scans_rejects_an_empty_scan_row_beside_other_rows(tmp_path, rows):
    # Such a scan used to read back as one measurement, or as empty.
    path = tmp_path / "scans.csv"
    # Scan 1 is a well-formed empty scan.
    path.write_text("\n".join([",".join(SCANS_CSV_HEADER), "1,,,,", *rows]) + "\n")
    message = r"scans\.csv: scan 0: an empty-scan row must be the scan's only row$"
    with pytest.raises(ConfigError, match=message):
        read_scans_csv(path)


def _simulated_csv_lines(tmp_path, reference_config):
    truth = generate_truth(reference_config)
    truth_path, scans_path = tmp_path / "truth.csv", tmp_path / "scans.csv"
    write_truth_csv(truth, truth_path)
    write_scans_csv(generate_scans(truth, 0), scans_path)
    return truth_path, truth_path.read_text().splitlines(), scans_path, scans_path.read_text().splitlines()


@pytest.mark.parametrize("target", [0, 4])
def test_read_truth_rejects_a_missing_state(tmp_path, reference_config, target):
    path, lines, _, _ = _simulated_csv_lines(tmp_path, reference_config)
    dropped = [line for line in lines if not line.startswith(f"3,{target},")]
    assert len(dropped) == len(lines) - 1
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(ConfigError, match=rf"truth\.csv: no state for scan 3, target {target}$"):
        read_truth_states(path)


@pytest.mark.parametrize("name", ["scans.csv", "truth.csv"])
def test_read_csv_refuses_an_unexpected_header(tmp_path, name):
    path = tmp_path / name
    path.write_text("scan,target,x,y\n0,0,1.0,2.0\n")
    read = read_scans_csv if name == "scans.csv" else read_truth_states
    with pytest.raises(ConfigError, match=rf"^unexpected {re.escape(name)} header: \['scan', 'target', 'x', 'y'\]$"):
        read(path)


@pytest.mark.parametrize("row", ["0,0,5.0,1.0,11.0", "0,0,5.0,1.0,11.0,0.4,7"])
def test_read_truth_refuses_a_row_of_other_than_six_fields(tmp_path, row):
    path = tmp_path / "truth.csv"
    path.write_text(",".join(TRUTH_CSV_HEADER) + f"\n{row}\n")
    fields = row.count(",") + 1
    with pytest.raises(ConfigError, match=rf"truth\.csv, line 2: malformed row .*: {fields} fields, expected 6$"):
        read_truth_states(path)


def test_read_truth_names_a_header_only_file(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text(",".join(TRUTH_CSV_HEADER) + "\n")
    with pytest.raises(ConfigError) as e:
        read_truth_states(path)
    assert str(e.value) == f"{path}: contains no states"


def test_read_truth_rejects_a_repeated_state(tmp_path, reference_config):
    path, lines, _, _ = _simulated_csv_lines(tmp_path, reference_config)
    # A second (2, 1) row used to overwrite the first one silently.
    path.write_text("\n".join(lines + ["2,1,0.0,0.0,0.0,0.0"]) + "\n")
    with pytest.raises(ConfigError, match=rf"truth\.csv, line {len(lines) + 1}: repeated scan 2, target 1$"):
        read_truth_states(path)


def test_read_truth_rejects_a_negative_index(tmp_path, reference_config):
    path, lines, _, _ = _simulated_csv_lines(tmp_path, reference_config)
    path.write_text("\n".join(lines + ["-1,0,5.0,1.0,11.0,0.4"]) + "\n")
    with pytest.raises(ConfigError, match=rf"truth\.csv, line {len(lines) + 1}: .*negative"):
        read_truth_states(path)


def test_read_scans_rejects_a_gap_in_the_scan_indices(tmp_path, reference_config):
    # Without scan 2 but with a scan 20 the file still holds 20 scans, and
    # scan 3 used to be scored against truth epoch 2.
    _, _, path, lines = _simulated_csv_lines(tmp_path, reference_config)
    kept = [line for line in lines if not line.startswith("2,")] + ["20,0,5.0,11.0,-1"]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ConfigError, match=r"scans\.csv: scans must run 0\.\.19; scan 2 has no rows"):
        read_scans_csv(path)


def test_read_scans_names_the_file_and_scan_of_a_repeated_target_id(tmp_path):
    path = tmp_path / "scans.csv"
    path.write_text(",".join(SCANS_CSV_HEADER) + "\n0,,,,\n1,0,1.0,2.0,3\n1,1,3.0,4.0,3\n")
    message = r"scans\.csv: scan 1: a target id appears on more than one measurement$"
    with pytest.raises(ConfigError, match=message):
        read_scans_csv(path)


@pytest.mark.parametrize("k", ["0", "33", "-1"])
def test_read_scans_rejects_a_repeated_or_misnumbered_measurement(tmp_path, reference_config, k):
    # A repeated row used to give scan 0 one measurement more.
    _, _, path, lines = _simulated_csv_lines(tmp_path, reference_config)
    assert sum(line.startswith("0,") for line in lines) == 32
    path.write_text("\n".join(lines + [f"0,{k},1.0,2.0,-1"]) + "\n")
    with pytest.raises(ConfigError, match=r"scans\.csv: scan 0: measurements must run 0\.\.32, each once"):
        read_scans_csv(path)
