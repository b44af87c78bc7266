import collections
import dataclasses
import hashlib
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import pumplimit.scheme
import pumplimit.sweep
from pumplimit import (
    BadConfigError,
    BadParameterError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    SchemeParams,
    SweepConfig,
    SweepRecord,
    SweepRecords,
    build_density_matrix,
    concurrence,
    is_two_d,
    load_csv,
    run_sweep,
    saturating_config,
    sweep_to_csv,
    verify_bounds,
    verify_csv,
)
from pumplimit.sweep import (
    _BATCH,
    COLUMNS,
    CSV_HEADER,
    _batches,
    _columns_from_csv,
    _csv_task,
    _evaluate,
    _ordered_map,
    _render_csv,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_samples=0, seed=1),
        dict(n_samples=10, seed=-2),
        dict(n_samples=10, seed=1, mode="both"),
        dict(n_samples=10, seed=1, workers=0),
        dict(n_samples=10, seed=1, param_ranges={"beta": (0.0, 1.0)}),
        dict(n_samples=10, seed=1, param_ranges={"t": (0.5, 1.5)}),
        dict(n_samples=10, seed=1, param_ranges={"mu": (0.9, 0.1)}),
        dict(n_samples=10, seed=2**128),
        dict(n_samples=True, seed=1),
        dict(n_samples=10, seed=False),
        dict(n_samples=10, seed=1, workers=True),
        dict(n_samples=10, seed=1, param_ranges={"theta1": (-1e308, 1e308)}),
        dict(n_samples=10, seed=1, param_ranges={"t": (0.0, 0.5, 1.0)}),
        dict(n_samples=10, seed=1, param_ranges={"t": "01"}),
        dict(n_samples=10, seed=1, param_ranges=[("t", (0.0, 1.0))]),
    ],
)
def test_config_rejected(kwargs):
    with pytest.raises(BadConfigError):
        SweepConfig(**kwargs)


def test_string_ranges_sweep_as_their_floats(tmp_path):
    digests = []
    for bounds in (("0", "1"), (0.0, 1.0)):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(SweepConfig(n_samples=300, seed=4, param_ranges={"t": bounds}), path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_largest_seed_runs():
    records = run_sweep(SweepConfig(n_samples=2, seed=2**128 - 1))
    assert [r.sample_id for r in records] == [0, 1]


def test_single_sample_reproducible():
    cfg = SweepConfig(n_samples=1, seed=123)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert len(first) == len(second) == 1
    assert first[0].params == second[0].params
    assert first[0].concurrence == second[0].concurrence
    np.testing.assert_array_equal(first[0].spectrum, second[0].spectrum)


def test_records_are_consistent():
    records = run_sweep(SweepConfig(n_samples=200, seed=5))
    assert [r.sample_id for r in records] == list(range(200))
    for r in records[:20]:
        assert r.bound_general == (1.0 + r.params.pump_p) / 2.0
        assert r.bound_2d == r.params.pump_p
        rho = build_density_matrix(r.params)
        assert abs(concurrence(rho) - r.concurrence) <= 1e-12
        got = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.max(np.abs(got - r.spectrum)) <= 1e-12


def test_two_d_mode_pins_t_and_stays_two_level():
    records = run_sweep(SweepConfig(n_samples=300, seed=8, mode="two_d"))
    for r in records:
        assert r.params.t == 1.0
        assert r.concurrence <= r.params.pump_p + 1e-9
    for r in records[:50]:
        assert is_two_d(build_density_matrix(r.params), tol=1e-9)


def test_sweep_respects_custom_ranges():
    cfg = SweepConfig(n_samples=100, seed=3, param_ranges={"pump_p": (0.4, 0.6), "mu": (1.0, 1.0)})
    for r in run_sweep(cfg):
        assert 0.4 <= r.params.pump_p <= 0.6
        assert r.params.mu == 1.0


def test_csv_round_trip_exact(tmp_path):
    cfg = SweepConfig(n_samples=50, seed=17)
    path = tmp_path / "sweep.csv"
    report = sweep_to_csv(cfg, path)
    assert report.n_records == 50
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    loaded = load_csv(path)
    direct = run_sweep(cfg)
    assert len(loaded) == len(direct)
    for a, b in zip(loaded, direct):
        # 17 significant digits reparse to the exact same doubles
        assert a.params == b.params
        assert a.concurrence == b.concurrence
        np.testing.assert_array_equal(a.spectrum, b.spectrum)


def test_csv_bytes_identical_across_worker_counts(tmp_path):
    digests = []
    for workers in (1, 2, 3):
        path = tmp_path / f"w{workers}.csv"
        sweep_to_csv(SweepConfig(n_samples=20_000, seed=99, workers=workers), path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]


def test_pool_module_imported_only_when_a_pool_starts(tmp_path):
    code = (
        "import sys, pumplimit, pumplimit.cli\n"
        f"pumplimit.sweep_to_csv(pumplimit.SweepConfig(n_samples=1, seed=1, workers=2), {str(tmp_path / 'one.csv')!r})\n"
        "sys.exit('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "concurrent.futures was imported"
    assert (tmp_path / "one.csv").read_text().count("\n") == 2


def _traced_peak(func) -> int:
    """Bytes allocated by ``func()`` at its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        func()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_batch_memory_budget():
    task = (SweepConfig(n_samples=_BATCH, seed=3), 0, _BATCH)
    _csv_task(*task)  # one-time set-up is not part of a batch's working set
    assert _traced_peak(lambda: _csv_task(*task)) <= 8 * 2**20


def _records_nbytes(records) -> int:
    return records._ids.nbytes + records._values.nbytes


def test_load_csv_holds_records_once(tmp_path):
    path = tmp_path / "rows.csv"
    sweep_to_csv(SweepConfig(n_samples=24 * _BATCH, seed=3), path)
    load_csv(path)  # one-time set-up is not part of the load
    held = []
    peak = _traced_peak(lambda: held.append(load_csv(path)))
    assert len(held[0]) == 24 * _BATCH
    assert peak - _records_nbytes(held[0]) <= 3 * 2**20


def test_run_sweep_holds_records_once():
    run_sweep(SweepConfig(n_samples=10, seed=3))
    held = []
    peak = _traced_peak(lambda: held.append(run_sweep(SweepConfig(n_samples=10**5, seed=3))))
    assert len(held[0]) == 10**5
    assert peak - _records_nbytes(held[0]) <= 4 * 2**20


def test_task_stream_is_made_as_it_is_consumed():
    cfg = SweepConfig(n_samples=10**9, seed=3)
    last = collections.deque(maxlen=1)
    stops = _ordered_map(lambda cfg, start, stop: stop, _batches(cfg), 1)
    assert _traced_peak(lambda: last.extend(stops)) < 2**20
    assert list(last) == [10**9]


def test_verify_bounds_empty():
    report = verify_bounds([])
    assert report.n_records == 0
    assert report.violations == 0


def test_verify_bounds_flags_synthetic_violation():
    params = dict(t=0.3, theta1=0.0, theta2=0.0, alpha1=0.0, alpha2=0.0,
                  mu=1.0, gamma0=0.0, pump_p=0.5)
    from pumplimit import SchemeParams

    bad = SweepRecord(
        sample_id=0,
        params=SchemeParams(**params),
        concurrence=0.9,
        bound_general=0.75,
        bound_2d=0.5,
        spectrum=np.array([1.0, 0.0, 0.0, 0.0]),
    )
    report = verify_bounds([bad])
    assert report.violations == 1
    assert report.worst_slack == pytest.approx(0.75 - 0.9, abs=1e-12)


def test_verify_bounds_applies_two_d_bound_only_at_full_transmission():
    from pumplimit import SchemeParams

    params = dict(theta1=0.0, theta2=0.0, alpha1=0.0, alpha2=0.0,
                  mu=1.0, gamma0=0.0, pump_p=0.5)
    shared = dict(
        sample_id=0,
        concurrence=0.6,  # above the 2D bound (0.5), below the general one (0.75)
        bound_general=0.75,
        bound_2d=0.5,
        spectrum=np.array([1.0, 0.0, 0.0, 0.0]),
    )
    general = SweepRecord(params=SchemeParams(t=0.3, **params), **shared)
    two_d = SweepRecord(params=SchemeParams(t=1.0, **params), **shared)
    assert verify_bounds([general]).violations == 0
    assert verify_bounds([two_d]).violations == 1


def test_sweep_has_no_violations_in_either_mode(tmp_path):
    for mode in ("general", "two_d"):
        cfg = SweepConfig(n_samples=5000, seed=31, mode=mode)
        path = tmp_path / f"{mode}.csv"
        report = sweep_to_csv(cfg, path)
        assert report.violations == 0
        assert report.worst_slack >= -1e-9
        again = verify_csv(path)
        assert again.violations == 0
        assert again.n_records == 5000
        assert again.worst_slack == pytest.approx(report.worst_slack, abs=1e-12)


def test_report_decile_maxima_populated():
    records = run_sweep(SweepConfig(n_samples=5000, seed=13))
    report = verify_bounds(records)
    assert report.n_records == 5000
    assert not np.any(np.isnan(report.decile_max))
    assert np.nanmax(report.decile_max) == report.max_general


def test_saturating_config_meets_bound_on_grid():
    for k in range(11):
        pump_p = k / 10.0
        params, achieved = saturating_config(pump_p)
        assert params.t == 0.5
        assert params.mu == 1.0
        assert abs(achieved - (1.0 + pump_p) / 2.0) <= 1e-9


def test_saturating_config_rejects_bad_p():
    with pytest.raises(BadParameterError):
        saturating_config(1.5)


def test_records_immutable():
    record = run_sweep(SweepConfig(n_samples=1, seed=2))[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.concurrence = 0.0


def _render_oracle(ids, values) -> bytes:
    """The per-value renderer the template must match byte for byte."""
    lines = []
    for i in range(ids.shape[0]):
        lines.append(str(int(ids[i])) + "," + ",".join(format(x, ".17g") for x in values[i]))
    return ("\n".join(lines) + "\n").encode("ascii")


def test_render_matches_oracle_on_special_values():
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0, 0.1]
    rng = np.random.default_rng(4)
    values = rng.choice(special, size=(25, 15))
    values[0] = special[:10] + special[:5]
    batch = (np.arange(2**31 - 3, 2**31 + 22, dtype=np.int64) * 3, values)
    rendered = _render_csv(*batch)
    assert rendered == _render_oracle(*batch)
    assert rendered.startswith(b"6442450935,nan,inf,-inf,-0,0,4.9406564584124654e-324,1.0000000000000001e+300,")


def test_render_matches_oracle_across_chunk_boundaries():
    n = 2 * _BATCH + 37
    batch = _evaluate(SweepConfig(n_samples=n, seed=21), 0, n)
    rendered = _render_csv(*batch)
    assert rendered == _render_oracle(*batch)
    assert rendered.count(b"\n") == n


def test_render_matches_oracle_on_adversarial_values():
    rng = np.random.default_rng(9)
    # neighbours of the ends of the fixed-notation range and of every power of ten
    powers = np.array([float(f"1e{k}") for k in range(-4, 17)])
    near, up, down = [powers], powers, powers
    for _ in range(300):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    # exact decimal ties at the 17th digit: n + 1/4, n + 3/4 and odd j/8
    n = rng.integers(10**15, 2**50, 20_000).astype(float)
    odd_eighths = (rng.integers(8 * 10**14, 8 * 10**15, 20_000) | 1) / 8.0
    log_uniform = 10.0 ** rng.uniform(-8.0, 20.0, 30_000) * rng.choice([-1.0, 1.0], 30_000)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.nan, np.inf, -np.inf]
    values = np.concatenate([*near, n + 0.25, n + 0.75, odd_eighths, log_uniform, special])
    values = np.concatenate([values, np.zeros(-values.size % 15)])
    assert values.size >= 10**5
    values = rng.permutation(values).reshape(-1, 15)
    batch = (np.arange(values.shape[0], dtype=np.int64), values)
    assert _render_csv(*batch) == _render_oracle(*batch)


_BAD_STATES = (37, 60)  # positions inside the second batch


def _plant_bad_states(monkeypatch):
    """Make the builder return factors of unphysical states at _BAD_STATES of the second batch.

    The builders return factors G of rho = G G^dag, which is PSD for any G,
    so the planted factor breaks the trace rule: G = I gives trace 4.
    """
    original = pumplimit.scheme._density_stack

    def with_bad_states(*args):
        g = original(*args)
        if g.shape[0] < _BATCH:
            for k in _BAD_STATES:
                g[k] = np.eye(4)
        return g

    monkeypatch.setattr(pumplimit.scheme, "_density_stack", with_bad_states)


def test_gate_failure_names_sample_id(monkeypatch):
    _plant_bad_states(monkeypatch)
    with pytest.raises(InvalidDensityMatrixError, match="trace 4 is not 1") as info:
        run_sweep(SweepConfig(n_samples=_BATCH + 100, seed=6))
    assert f"sample_id={_BATCH + _BAD_STATES[0]}:" in str(info.value)
    assert info.value.index == _BATCH + 37


def test_failed_sweep_leaves_path_as_it_was(monkeypatch, tmp_path):
    path = tmp_path / "out.csv"
    cfg = SweepConfig(n_samples=_BATCH + 100, seed=6)
    _plant_bad_states(monkeypatch)
    for earlier in (None, b"earlier content\n"):
        if earlier is not None:
            path.write_bytes(earlier)
        with pytest.raises(InvalidDensityMatrixError, match=f"sample_id={_BATCH + 37}:"):
            sweep_to_csv(cfg, path)
        assert os.listdir(tmp_path) == ([] if earlier is None else [path.name])
        if earlier is not None:
            assert path.read_bytes() == earlier
    monkeypatch.undo()
    sweep_to_csv(cfg, path)
    assert os.listdir(tmp_path) == [path.name]
    assert len(load_csv(path)) == cfg.n_samples


def test_sweep_keeps_symlinks_and_writes_pipes_in_place(tmp_path):
    cfg = SweepConfig(n_samples=50, seed=3)
    expected = tmp_path / "expected.csv"
    sweep_to_csv(cfg, expected)
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    sweep_to_csv(cfg, link)
    assert link.is_symlink()
    assert (tmp_path / "target.csv").read_bytes() == expected.read_bytes()

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    sweep_to_csv(cfg, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "fifo", "link.csv", "target.csv"]


def _records_oracle(ids, values) -> list:
    """The per-row record builder that array-backed records must match."""
    out = []
    for i, sid in enumerate(ids):
        params = SchemeParams(**{name: values[i, j] for j, name in enumerate(COLUMNS)})
        out.append(
            SweepRecord(
                sample_id=int(sid),
                params=params,
                concurrence=float(values[i, 8]),
                bound_general=float(values[i, 9]),
                bound_2d=float(values[i, 10]),
                spectrum=values[i, 11:15].copy(),
            )
        )
    return out


def _assert_same_records(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a.sample_id) is int and a.sample_id == b.sample_id
        assert a.params == b.params
        for name in ("concurrence", "bound_general", "bound_2d"):
            assert type(getattr(a, name)) is float
            assert getattr(a, name) == getattr(b, name)
        assert a.spectrum.dtype == b.spectrum.dtype and a.spectrum.shape == b.spectrum.shape
        assert a.spectrum.tobytes() == b.spectrum.tobytes()


def _report_key(report):
    return (
        report.n_records,
        report.violations,
        float(report.worst_slack).hex(),
        float(report.max_general).hex(),
        float(report.max_two_d).hex(),
        report.decile_max.tobytes(),
    )


@pytest.fixture(scope="module")
def two_batch_csv(tmp_path_factory):
    """A general-mode sweep file that spans two parse batches."""
    path = tmp_path_factory.mktemp("sweep") / "two_batch.csv"
    report = sweep_to_csv(SweepConfig(n_samples=_BATCH + 37, seed=41), path)
    return path, report


def test_records_match_seed_oracle(two_batch_csv):
    path, _ = two_batch_csv
    cfg = SweepConfig(n_samples=_BATCH + 37, seed=41)
    expected = _records_oracle(*_evaluate(cfg, 0, _BATCH)) + _records_oracle(
        *_evaluate(cfg, _BATCH, cfg.n_samples)
    )
    _assert_same_records(run_sweep(cfg), expected)
    loaded = [r for batch in _columns_from_csv(path) for r in _records_oracle(*batch)]
    _assert_same_records(load_csv(path), loaded)
    _assert_same_records(loaded, expected)


def _sweep_outputs(cfg, path):
    report = sweep_to_csv(cfg, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest, _report_key(report), run_sweep(cfg), load_csv(path), _report_key(verify_csv(path))


@pytest.mark.parametrize("mode", ["general", "two_d"])
@pytest.mark.parametrize("batch", [1000, 4096])
def test_results_do_not_depend_on_batch_size(tmp_path, monkeypatch, mode, batch):
    cfg = SweepConfig(n_samples=2 * _BATCH + 1500, seed=77, mode=mode)
    digest, report, records, loaded, audit = _sweep_outputs(cfg, tmp_path / "default.csv")
    monkeypatch.setattr(pumplimit.sweep, "_BATCH", batch)
    other = _sweep_outputs(cfg, tmp_path / f"batch{batch}.csv")
    assert other[0] == digest
    assert other[1] == report
    _assert_same_records(other[2], records)
    _assert_same_records(other[3], loaded)
    assert other[4] == audit == report


def test_sweep_records_sequence():
    records = run_sweep(SweepConfig(n_samples=300, seed=12))
    assert isinstance(records, SweepRecords)
    assert len(records) == 300
    assert records[-1].sample_id == records[299].sample_id == 299
    assert records[np.int64(7)].sample_id == 7
    part = records[100:250:50]
    assert isinstance(part, SweepRecords)
    assert [r.sample_id for r in part] == [100, 150, 200]
    assert np.shares_memory(part._values, records._values)
    assert [r.sample_id for r in records] == list(range(300))
    assert len(records[300:]) == 0
    for index in (300, -301):
        with pytest.raises(IndexError):
            records[index]
    first = records[0]
    first.spectrum[0] = -1.0  # every access hands out its own spectrum
    assert records[0].spectrum[0] != -1.0


def test_records_recheck_settings_unless_their_store_was_checked(tmp_path, monkeypatch):
    cfg = SweepConfig(n_samples=40, seed=12)
    swept = run_sweep(cfg)
    sweep_to_csv(cfg, tmp_path / "s.csv")
    loaded = load_csv(tmp_path / "s.csv")
    expected = [r.params for r in swept]
    # arrays a caller brings are checked row by row on access
    values = swept._values.copy()
    values[3, COLUMNS.index("mu")] = 1.5
    own = SweepRecords((swept._ids, values))
    with pytest.raises(BadParameterError, match="mu must be in"):
        own[3]
    with pytest.raises(BadParameterError, match="mu must be in"):
        own[2:5][1]
    assert own[2].params == expected[2]

    # the stores of run_sweep and load_csv passed _check_batch: no second check
    def refuse(self):
        raise AssertionError("settings checked again")

    monkeypatch.setattr(SchemeParams, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="checked again"):
        own[2]
    for records in (swept, loaded):
        assert [r.params for r in records] == expected
        assert [r.params for r in records[10:20]] == expected[10:20]
        assert all(type(value) is float for value in vars(records[0].params).values())


@pytest.mark.parametrize("read", [verify_csv, load_csv])
def test_csv_with_wrong_header_is_refused(tmp_path, read):
    path = tmp_path / "wrong.csv"
    path.write_text(CSV_HEADER.replace("pump_p", "pump_q") + "\n")
    with pytest.raises(BadConfigError, match="unexpected CSV header"):
        read(path)


@pytest.mark.parametrize("body", ["", "\n"])
def test_header_only_csv_loads_empty(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text(CSV_HEADER + "\n" + body)
    records = load_csv(path)
    assert len(records) == 0
    assert list(records) == []
    report = verify_bounds(records)
    assert report.n_records == 0
    assert report.violations == 0
    assert verify_csv(path).n_records == 0


def test_header_without_newline_loads_empty(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text(CSV_HEADER)
    assert len(load_csv(path)) == 0
    assert verify_csv(path).n_records == 0


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_blank_and_comment_lines_leave_exactly_the_rows(tmp_path, newline):
    cfg = SweepConfig(n_samples=5, seed=9)
    full = tmp_path / "full.csv"
    sweep_to_csv(cfg, full)
    header, *rows = full.read_text().splitlines()
    mixed = tmp_path / "mixed.csv"
    lines = [header, "", "# a note", rows[0], "  ", "#", *rows[1:4], "", rows[4]]
    mixed.write_bytes(newline.join(lines).encode("ascii"))  # no newline after the last row
    records = load_csv(mixed)
    _assert_same_records(records, run_sweep(cfg))
    assert [r.sample_id for r in records] == list(range(5))


def test_rows_beyond_the_counted_lines_are_refused(two_batch_csv, monkeypatch):
    path = two_batch_csv[0]
    monkeypatch.setattr(pumplimit.sweep, "_line_breaks", lambda path: _BATCH + 36)
    with pytest.raises(BadConfigError, match=f"^{re.escape(str(path))}: more rows than the {_BATCH + 36}"):
        load_csv(path)
    monkeypatch.setattr(pumplimit.sweep, "_line_breaks", lambda path: _BATCH + 37)
    assert len(load_csv(path)) == _BATCH + 37


def test_verify_bounds_columns_match_records(two_batch_csv):
    path, report = two_batch_csv
    records = load_csv(path)
    assert _report_key(verify_bounds(records)) == _report_key(verify_bounds(list(records)))
    assert _report_key(verify_bounds(records)) == _report_key(report)
    assert _report_key(verify_bounds(iter(records[::3]))) == _report_key(verify_bounds(list(records[::3])))


def _with_row(path, out, sample_id, **values):
    """Copy a sweep CSV to ``out`` with some fields of one row replaced."""
    lines = path.read_text().splitlines(keepends=True)
    names = CSV_HEADER.split(",")
    fields = lines[sample_id + 1].rstrip("\n").split(",")
    for name, value in values.items():
        fields[names.index(name)] = str(value)
    lines[sample_id + 1] = ",".join(fields) + "\n"
    out.write_text("".join(lines))
    return out


@pytest.mark.parametrize(
    "name, value, match",
    [("pump_p", 1.5, "pump_p must be in \\[0, 1\\]"), ("theta1", "nan", "theta1 must be finite")],
)
def test_load_csv_rejects_bad_settings(two_batch_csv, tmp_path, name, value, match):
    sample_id = _BATCH + 11
    bad = _with_row(two_batch_csv[0], tmp_path / "bad.csv", sample_id, **{name: value})
    with pytest.raises(BadParameterError, match=match) as info:
        load_csv(bad)
    assert f"sample_id={sample_id}:" in str(info.value)
    with pytest.raises(BadParameterError, match=f"sample_id={sample_id}:"):
        verify_csv(bad)


@pytest.mark.parametrize(
    "spectrum, match",
    [
        ((0.2, 0.9, 0.3, 0.1), "values are not sorted non-ascending"),
        ((0.5, 0.3, 0.2, -0.001), "negative weight"),
        ((0.5, 0.3, 0.2, 0.1), "sum 1.1 is not 1"),
        ((0.5, 0.3, 0.2, "nan"), "spectrum contains non-finite values"),
    ],
)
def test_load_csv_rejects_bad_spectrum(two_batch_csv, tmp_path, spectrum, match):
    sample_id = _BATCH + 11
    names = ("lambda1", "lambda2", "lambda3", "lambda4")
    bad = _with_row(two_batch_csv[0], tmp_path / "bad.csv", sample_id, **dict(zip(names, spectrum)))
    for read in (load_csv, verify_csv):
        with pytest.raises(InvalidSpectrumError, match=f"^sample_id={sample_id}: {match}"):
            read(bad)


@pytest.mark.parametrize(
    "values",
    [dict(concurrence="nan"), dict(concurrence=1.5, pump_p=0.4, bound_general=2.0)],
)
def test_audit_flags_rows_that_break_the_bound(two_batch_csv, tmp_path, values):
    bad = _with_row(two_batch_csv[0], tmp_path / "bad.csv", 5, **values)
    for report in (verify_csv(bad), verify_bounds(load_csv(bad)), verify_bounds(list(load_csv(bad)))):
        assert report.violations == 1
        assert not report.worst_slack >= -1e-9
    record = load_csv(bad)[5]
    assert verify_bounds([record]).violations == 1


@pytest.mark.parametrize(
    "line, problem",
    [
        ("7,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0", "expected 16 fields, got 15"),
        ("7,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,zero", "not a number: 'zero'"),
    ],
)
def test_malformed_row_names_file_line(two_batch_csv, tmp_path, line, problem):
    lines = two_batch_csv[0].read_text().splitlines(keepends=True)
    lines[_BATCH + 20] = line + "\n"  # file line _BATCH + 21, in the second batch
    bad = tmp_path / "malformed.csv"
    bad.write_text("".join(lines))
    for read in (load_csv, verify_csv):
        with pytest.raises(BadConfigError) as info:
            read(bad)
        assert str(info.value) == f"{bad}, line {_BATCH + 21}: {problem}"


def test_rows_all_short_or_unparsable_are_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\n" + "0,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0\n" * 3)
    with pytest.raises(BadConfigError, match="line 2: expected 16 fields, got 15"):
        load_csv(path)
    # float() takes "1_0" but np.loadtxt does not: the error names the batch's lines
    path.write_text(CSV_HEADER + "\n" + "1_0,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0\n" * 3)
    with pytest.raises(BadConfigError, match="lines 2-4: not a table of 16 numbers"):
        load_csv(path)


_TAIL = "0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0"  # a valid row after its sample_id
_INEXACT = "sample_id is 2**53 or more and cannot be read exactly"


@pytest.mark.parametrize(
    "ids, problem",
    [
        (["0", "0", "1.7"], "line 3: sample_id 0 after 0: ids must strictly increase"),
        (["0", "1.7"], "line 3: sample_id 1.7 is not a nonnegative integer"),
        (["0", "5", "4"], "line 4: sample_id 4 after 5: ids must strictly increase"),
        (["0", "", "0"], "line 4: sample_id 0 after 0: ids must strictly increase"),
        (["-1"], "line 2: sample_id -1.0 is not a nonnegative integer"),
        (["nan"], "line 2: sample_id nan is not a nonnegative integer"),
        (["1e30"], "line 2: sample_id 1e+30 is not a nonnegative integer"),
        (["0", "9007199254740993"], f"line 3: {_INEXACT}"),
        (["9007199254740992", "9007199254740993"], f"line 2: {_INEXACT}"),
    ],
)
def test_bad_sample_ids_are_rejected(tmp_path, ids, problem):
    path = tmp_path / "ids.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(f"{i},{_TAIL}\n" if i else "\n" for i in ids))
    for read in (load_csv, verify_csv):
        with pytest.raises(BadConfigError) as info:
            read(path)
        assert str(info.value) == f"{path}, {problem}"


def test_sample_ids_below_two_to_the_53_load_exactly(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(CSV_HEADER + "\n" + f"0,{_TAIL}\n9007199254740991,{_TAIL}\n")
    assert [r.sample_id for r in load_csv(path)] == [0, 2**53 - 1]
    assert verify_csv(path).n_records == 2


def test_repeated_sample_id_across_batches_is_rejected(two_batch_csv, tmp_path):
    # the first row of the second batch repeats the last id of the first
    lines = two_batch_csv[0].read_text().splitlines(keepends=True)
    lines[_BATCH + 1] = lines[_BATCH + 1].replace(f"{_BATCH},", f"{_BATCH - 1},", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    for read in (load_csv, verify_csv):
        with pytest.raises(BadConfigError) as info:
            read(bad)
        assert str(info.value) == (
            f"{bad}, line {_BATCH + 2}: sample_id {_BATCH - 1} after {_BATCH - 1}: "
            "ids must strictly increase"
        )


def test_blank_and_comment_lines_keep_file_line_numbers(tmp_path):
    path = tmp_path / "gaps.csv"
    body = f"0,{_TAIL}\n\n# a comment\n   \n1,{_TAIL}\n2,0.5,0.3\n"
    path.write_text(CSV_HEADER + "\n" + body)
    with pytest.raises(BadConfigError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}, line 7: expected 16 fields, got 3"
    path.write_text(CSV_HEADER + "\n" + body.replace("2,0.5,0.3\n", ""))
    assert [r.sample_id for r in load_csv(path)] == [0, 1]
