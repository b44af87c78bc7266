import collections
import dataclasses
import hashlib
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import pumplimit.scheme
import pumplimit.sweep
import pumplimit.twoqubit
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
    canonical_pump,
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
    _BLOCK_ROWS,
    _VALUE_FIELDS,
    COLUMNS,
    CSV_HEADER,
    _batches,
    _columns_from_csv,
    _csv_task,
    _draw_columns,
    _evaluate,
    _ordered_map,
    _render_csv,
)
from pumplimit.twoqubit import _PPT_ABOVE, _concurrence_from_s, _orbit_stack, _ppt_det_stack, _wootters_stack

#: the grammar error of a sweep row, after its CSV line or its record's sample_id
_NOT_ROW = "not an int64 sample_id and 15 numbers"


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


def test_two_d_mode_is_the_t_range_it_draws_from():
    with pytest.raises(BadConfigError, match=r"two_d mode draws t from \(1.0, 1.0\), got \(0.2, 0.3\)"):
        SweepConfig(n_samples=1, seed=0, mode="two_d", param_ranges={"t": (0.2, 0.3)})
    pinned = SweepConfig(n_samples=_BATCH, seed=5, param_ranges={"t": (1.0, 1.0)})
    two_d = dataclasses.replace(pinned, mode="two_d", param_ranges=None)
    assert two_d.ranges() == pinned.ranges()
    assert np.array_equal(_draw_columns(two_d, 0, _BATCH), _draw_columns(pinned, 0, _BATCH))


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


def test_workers_start_no_child_process(tmp_path):
    code = (
        "import resource, sys, pumplimit\n"
        f"cfg = pumplimit.SweepConfig(n_samples={2 * _BATCH + 1}, seed=1, workers=2)\n"
        f"pumplimit.sweep_to_csv(cfg, {str(tmp_path / 'two.csv')!r})\n"
        "assert len(pumplimit.run_sweep(cfg)) == cfg.n_samples\n"
        "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules,\n"
        "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # a pool ran, yet no multiprocessing import and no child's peak memory
    assert proc.stdout.split() == ["True", "False", "0"]
    assert (tmp_path / "two.csv").read_text().count("\n") == 2 * _BATCH + 2


def test_threads_under_fast_switching_keep_every_batch(tmp_path):
    cfg = SweepConfig(n_samples=6 * _BATCH + 5, seed=12)
    sweep_to_csv(cfg, tmp_path / "w1.csv")
    expected = run_sweep(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = dataclasses.replace(cfg, workers=8)  # more threads than cores
        sweep_to_csv(threaded, tmp_path / "w8.csv")
        records = run_sweep(threaded)
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "w8.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()
    np.testing.assert_array_equal(records._ids, expected._ids)
    np.testing.assert_array_equal(records._values, expected._values)


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
    assert _traced_peak(lambda: _csv_task(*task)) <= 3 * 2**20


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


@pytest.mark.parametrize(
    "change, error, match",
    [
        (dict(concurrence=-1.0), BadParameterError, "concurrence -1.0 is negative"),
        (dict(spectrum=np.array([0.1, 0.9, 0.0, 0.0])), InvalidSpectrumError, "values are not sorted"),
        (dict(spectrum=np.array([0.9, 0.1, 0.0])), BadParameterError, _NOT_ROW),
    ],
    ids=["negative_concurrence", "unsorted_spectrum", "three_value_spectrum"],
)
def test_verify_bounds_checks_plain_records(change, error, match):
    records = list(run_sweep(SweepConfig(n_samples=_BATCH + 10, seed=14)))
    sample_id = _BATCH + 3
    records[sample_id] = dataclasses.replace(records[sample_id], **change)
    with pytest.raises(error, match=f"^sample_id={sample_id}: {match}"):
        verify_bounds(iter(records))
    lone = SweepRecord(
        sample_id=7,
        params=SchemeParams(**dict(zip(COLUMNS, [0.5] * len(COLUMNS)))),
        concurrence=0.2,
        bound_general=0.75,
        bound_2d=0.5,
        spectrum=np.array([0.9, 0.1, 0.0, 0.0]),
    )
    with pytest.raises(error, match=f"^sample_id=7: {match}"):
        verify_bounds([dataclasses.replace(lone, **change)])


@pytest.mark.parametrize("sample_id", [2.5, True, "7"], ids=["float", "bool", "str"])
def test_verify_bounds_refuses_a_sample_id_that_is_not_an_integer(sample_id):
    records = list(run_sweep(SweepConfig(n_samples=3, seed=14)))
    records[1] = dataclasses.replace(records[1], sample_id=sample_id)
    with pytest.raises(BadParameterError, match=f"^sample_id={re.escape(repr(sample_id))}: {_NOT_ROW}$"):
        verify_bounds(records)


@pytest.mark.parametrize(
    "change",
    [
        dict(sample_id=2**63),
        dict(sample_id=np.uint64(2**64 - 1)),
        dict(concurrence=None),
        dict(bound_general=[0.1]),
        dict(params=None),
        dict(concurrence=True),
    ],
    ids=["id_past_int64", "uint64_id", "none_concurrence", "list_bound", "none_params", "bool_concurrence"],
)
def test_verify_bounds_names_a_plain_record_that_is_not_a_row(change):
    """A plain record is an int64 sample_id and 15 numbers, by the package's number rule, or it is named."""
    records = list(run_sweep(SweepConfig(n_samples=_BATCH + 10, seed=14)))
    records[_BATCH + 3] = dataclasses.replace(records[_BATCH + 3], **change)
    sample_id = records[_BATCH + 3].sample_id
    with pytest.raises(BadParameterError, match=f"^sample_id={re.escape(repr(sample_id))}: {_NOT_ROW}$"):
        verify_bounds(iter(records))


def test_plain_records_read_numeric_strings_as_settings_do():
    record = run_sweep(SweepConfig(n_samples=1, seed=14))[0]
    as_text = dataclasses.replace(record, concurrence=repr(record.concurrence), bound_2d="0.5")
    assert _report_key(verify_bounds([as_text])) == _report_key(verify_bounds([record]))


def test_a_bad_csv_line_and_a_bad_plain_record_get_one_message(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\n" + "0,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0\n")
    with pytest.raises(BadConfigError) as line:
        verify_csv(path)
    record = dataclasses.replace(run_sweep(SweepConfig(n_samples=1, seed=14))[0], spectrum=np.ones(3) / 3)
    with pytest.raises(BadParameterError) as plain:
        verify_bounds([record])
    assert str(line.value) == f"{path}, line 2: {_NOT_ROW}"
    assert str(plain.value) == f"sample_id=0: {_NOT_ROW}"


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
    # ids of 1 to 19 digits, up to the largest int64
    ids = np.concatenate((np.arange(2**31 - 3, 2**31 + 22) * 3, [0, 9, 10, 99, 100, 2**53, 2**63 - 1]))
    rng = np.random.default_rng(4)
    values = rng.choice(special, size=(len(ids), 15))
    values[0] = special[:10] + special[:5]
    batch = (ids.astype(np.int64), values)
    rendered = _render_csv(*batch)
    assert rendered == _render_oracle(*batch)
    assert rendered.startswith(b"6442450935,nan,inf,-inf,-0,0,4.9406564584124654e-324,1.0000000000000001e+300,")


def test_render_matches_oracle_across_chunk_boundaries():
    n = 2 * _BATCH + 37
    batch = _evaluate(SweepConfig(n_samples=n, seed=21), 0, n)
    rendered = _render_csv(*batch)
    assert rendered == _render_oracle(*batch)
    assert rendered.count(b"\n") == n


@pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BATCH])
def test_batch_rendered_in_blocks_matches_oracle(rows):
    cfg = SweepConfig(n_samples=_BATCH + 7, seed=22)
    text, _ = _csv_task(cfg, 7, 7 + rows)
    assert text == _render_oracle(*_evaluate(cfg, 7, 7 + rows))


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


def _gate_failure_names_sample_id(monkeypatch, workers):
    _plant_bad_states(monkeypatch)
    with pytest.raises(InvalidDensityMatrixError, match="trace 4 is not 1") as info:
        run_sweep(SweepConfig(n_samples=_BATCH + 100, seed=6, workers=workers))
    assert f"sample_id={_BATCH + _BAD_STATES[0]}:" in str(info.value)
    assert info.value.index == _BATCH + 37


def test_gate_failure_names_sample_id(monkeypatch):
    _gate_failure_names_sample_id(monkeypatch, workers=1)


def test_gate_failure_names_sample_id_through_pool(monkeypatch):
    _gate_failure_names_sample_id(monkeypatch, workers=2)


def _failed_sweep_leaves_path_as_it_was(monkeypatch, tmp_path, workers):
    path = tmp_path / "out.csv"
    cfg = SweepConfig(n_samples=_BATCH + 100, seed=6, workers=workers)
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


def test_failed_sweep_leaves_path_as_it_was(monkeypatch, tmp_path):
    _failed_sweep_leaves_path_as_it_was(monkeypatch, tmp_path, workers=1)


def test_failed_sweep_through_pool_leaves_path_as_it_was(monkeypatch, tmp_path):
    _failed_sweep_leaves_path_as_it_was(monkeypatch, tmp_path, workers=2)


def test_failed_batch_cancels_the_queued_batches(monkeypatch):
    evaluated = []
    original = pumplimit.sweep._evaluate

    def counted(cfg, start, stop):
        evaluated.append(start)
        if start == 0:
            raise InvalidDensityMatrixError("sweep: sample_id=0: planted")
        return original(cfg, start, stop)

    monkeypatch.setattr(pumplimit.sweep, "_evaluate", counted)
    workers = 2
    with pytest.raises(InvalidDensityMatrixError, match="planted"):
        run_sweep(SweepConfig(n_samples=20 * _BATCH, seed=6, workers=workers))
    assert 0 in evaluated
    assert len(evaluated) < workers * 4  # the window the pool fills before the first result


def test_early_stop_cancels_the_queued_batches():
    started = []

    def slow(i):
        started.append(i)
        time.sleep(0.05)
        return i

    results = _ordered_map(slow, ((i,) for i in range(100)), 2)
    assert next(results) == 0
    results.close()
    assert len(started) < 2 * 4


def test_gate_refuses_nan_factor_entry_by_sample_id(monkeypatch):
    original = pumplimit.scheme._density_stack

    def with_nan_entry(*args):
        g = original(*args)
        if g.shape[0] < _BATCH:
            g[_BAD_STATES[0], 2, 1] = complex(np.nan, 0.0)
        return g

    monkeypatch.setattr(pumplimit.scheme, "_density_stack", with_nan_entry)
    with pytest.raises(InvalidDensityMatrixError, match="trace nan is not 1") as info:
        run_sweep(SweepConfig(n_samples=_BATCH + 100, seed=6))
    assert f"sweep: sample_id={_BATCH + _BAD_STATES[0]}:" in str(info.value)
    assert info.value.index == _BATCH + _BAD_STATES[0]


def test_gate_refuses_bad_spectrum_by_sample_id(monkeypatch):
    original = pumplimit.scheme._spectrum_stack

    def with_nan_value(*args):
        spectra = original(*args)
        if spectra.shape[0] < _BATCH:
            spectra[_BAD_STATES[1], 3] = np.nan
        return spectra

    monkeypatch.setattr(pumplimit.scheme, "_spectrum_stack", with_nan_value)
    with pytest.raises(InvalidSpectrumError, match="non-finite") as info:
        run_sweep(SweepConfig(n_samples=_BATCH + 100, seed=6))
    assert f"sweep: sample_id={_BATCH + _BAD_STATES[1]}:" in str(info.value)
    assert info.value.index == _BATCH + _BAD_STATES[1]


@pytest.mark.parametrize("mode", ["general", "two_d"])
def test_kernel_skips_exactly_the_rows_whose_partial_transpose_is_positive(monkeypatch, mode):
    cfg = SweepConfig(n_samples=_BATCH, seed=23, mode=mode)
    g = pumplimit.scheme._density_stack(*_draw_columns(cfg, 0, _BATCH).T)
    full = _concurrence_from_s(*_wootters_stack(g).T)
    kernel_rows = []

    def counted(g):
        kernel_rows.append(len(g))
        return _wootters_stack(g)

    monkeypatch.setattr(pumplimit.twoqubit, "_wootters_stack", counted)
    _, values = _evaluate(cfg, 0, _BATCH)
    conc = values[:, _VALUE_FIELDS.index("concurrence")]
    assert conc.tobytes() == full.tobytes()  # bit for bit, signs of zeros included
    skipped = _ppt_det_stack(g) > _PPT_ABOVE
    assert sum(kernel_rows) == np.count_nonzero(~skipped)
    # the spectrum's orbit test skips only absolutely separable rows, all among these
    absolutely_separable = _orbit_stack(values[:, _VALUE_FIELDS.index("lambda1") :]) < -1e-12
    assert not (absolutely_separable & ~skipped).any()
    if mode == "two_d":
        assert not skipped.any()
    else:
        assert np.count_nonzero(absolutely_separable) < np.count_nonzero(skipped) < 0.5 * _BATCH


def test_sweep_calls_no_hermitian_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called a Hermitian eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert len(run_sweep(SweepConfig(n_samples=_BATCH + 100, seed=6))) == _BATCH + 100


def test_two_level_states_have_exact_zero_eigenvalues():
    _, values = _evaluate(SweepConfig(n_samples=_BATCH, seed=64, mode="two_d"), 0, _BATCH)
    rank_deficient = values[:, -2:]  # lambda3, lambda4: t = 1 makes det Gamma_t = 0
    assert (rank_deficient == 0.0).all()
    assert not np.signbit(rank_deficient).any()


@pytest.mark.parametrize("mode", ["general", "two_d"])
def test_every_swept_spectrum_is_majorized_by_the_pump_embedding(mode):
    # the paper's step: lambda(rho) < ((1+P)/2, (1-P)/2, 0, 0), row by row
    records = run_sweep(SweepConfig(n_samples=4096, seed=65, mode=mode))
    spectra = np.array([r.spectrum for r in records])
    pump_p = np.array([r.params.pump_p for r in records])
    embedded = np.zeros_like(spectra)
    embedded[:, 0], embedded[:, 1] = (1.0 + pump_p) / 2.0, (1.0 - pump_p) / 2.0
    partial, bound = np.cumsum(spectra, axis=1), np.cumsum(embedded, axis=1)
    assert (partial[:, :3] <= bound[:, :3] + 1e-15).all()
    assert np.abs(partial[:, 3] - bound[:, 3]).max() <= 1e-15


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


def test_records_check_caller_arrays_when_built_and_never_on_access(tmp_path, monkeypatch):
    cfg = SweepConfig(n_samples=40, seed=12)
    swept = run_sweep(cfg)
    sweep_to_csv(cfg, tmp_path / "s.csv")
    loaded = load_csv(tmp_path / "s.csv")
    expected = [r.params for r in swept]
    # arrays a caller brings are checked when the records are built
    values = swept._values.copy()
    values[3, COLUMNS.index("mu")] = 1.5
    with pytest.raises(BadParameterError, match="^sample_id=3: mu must be in"):
        SweepRecords((swept._ids, values))
    own = SweepRecords((swept._ids, swept._values.copy()))

    # no record access runs the SchemeParams checks again
    def refuse(self):
        raise AssertionError("settings checked again")

    monkeypatch.setattr(SchemeParams, "__post_init__", refuse)
    for records in (swept, loaded, own):
        assert [r.params for r in records] == expected
        assert [r.params for r in records[10:20]] == expected[10:20]
        assert all(type(value) is float for value in vars(records[0].params).values())


@pytest.mark.parametrize(
    "cut", ["short-ids", "short-values", "float-ids", "column-ids", "list-ids", "int-values", "narrow-values"]
)
def test_records_refuse_arrays_whose_shapes_disagree(cut):
    swept = run_sweep(SweepConfig(n_samples=5, seed=12))
    ids, values = swept._ids, swept._values
    records, message = {
        "short-ids": ((ids[:3], values), r"values must be a float array of shape \(3, 15\)"),
        "short-values": ((ids, values[:3]), r"values must be a float array of shape \(5, 15\)"),
        "float-ids": ((ids + 0.5, values), "ids must be a 1-D integer array, got float64"),
        "column-ids": ((ids[:, None], values), r"ids must be a 1-D integer array, got int64 of shape \(5, 1\)"),
        "list-ids": ((ids.tolist(), values), "ids must be a 1-D integer array, got list"),
        "int-values": ((ids, values.astype(np.int64)), r"values must be .* \(5, 15\), got int64 of shape"),
        "narrow-values": ((ids, values[:, :14]), r"values must be .* \(5, 15\), got float64 of shape \(5, 14\)"),
    }[cut]
    with pytest.raises(BadParameterError, match=f"^record {message}"):
        SweepRecords(records)


@pytest.mark.parametrize(
    "row, changes, error, message",
    [
        # a row the audit alone would pass: its bound comes from the bad pump_p
        (3, {"pump_p": 1.5, "concurrence": 1.2}, BadParameterError, "pump_p must be in"),
        (3, {"pump_p": np.nan}, BadParameterError, "pump_p must be finite"),
        (3, {"lambda2": np.nan}, InvalidSpectrumError, "non-finite"),
        (35, {"pump_p": 1.5, "concurrence": 1.2}, BadParameterError, "pump_p must be in"),
    ],
    ids=["p-out-of-range", "p-nan", "spectrum-nan", "third-batch"],
)
def test_caller_records_with_a_bad_row_are_refused_when_built(monkeypatch, row, changes, error, message):
    swept = run_sweep(SweepConfig(n_samples=40, seed=12))
    values = swept._values.copy()
    for name, value in changes.items():
        values[row, _VALUE_FIELDS.index(name)] = value
    monkeypatch.setattr(pumplimit.sweep, "_BATCH", 16)  # row 35 lies in the third batch
    with pytest.raises(error, match=f"^sample_id={row}: .*{message}"):
        SweepRecords((swept._ids, values))


@pytest.mark.parametrize(
    "build, kwargs, error",
    [
        (canonical_pump, dict(p=True), BadParameterError),
        (canonical_pump, dict(p=np.bool_(False)), BadParameterError),
        (SweepConfig, dict(n_samples=10, seed=1, param_ranges={"t": (False, True)}), BadConfigError),
        (SweepConfig, dict(n_samples=10, seed=1, param_ranges={"mu": (0.0, np.bool_(True))}), BadConfigError),
        (saturating_config, dict(pump_p=True), BadParameterError),
        (saturating_config, dict(pump_p=np.bool_(False)), BadParameterError),
    ],
    ids=["pump-true", "pump-numpy-false", "range-bools", "range-numpy-bool", "saturating-true", "saturating-numpy-false"],
)
def test_bools_are_not_numbers(build, kwargs, error):
    # SchemeParams refuses them too (tests/test_scheme.py)
    with pytest.raises(error):
        build(**kwargs)


@pytest.mark.parametrize("read", [verify_csv, load_csv])
def test_csv_with_wrong_header_is_refused(tmp_path, read):
    path = tmp_path / "wrong.csv"
    path.write_text(CSV_HEADER.replace("pump_p", "pump_q") + "\n")
    with pytest.raises(BadConfigError, match="unexpected CSV header"):
        read(path)


@pytest.mark.parametrize("read", [verify_csv, load_csv])
@pytest.mark.parametrize("at", [3, -5])  # in the header, in the second batch's last row
def test_csv_with_a_byte_that_is_not_ascii_is_refused(two_batch_csv, tmp_path, read, at):
    text = two_batch_csv[0].read_bytes()
    path = tmp_path / "binary.csv"
    path.write_bytes(text[:at] + b"\x80" + text[at:])
    with pytest.raises(BadConfigError, match=re.escape(f"{path}: not an ASCII text file (byte 0x80)")):
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
    [
        ("pump_p", 1.5, "pump_p must be in \\[0, 1\\]"),
        ("theta1", "nan", "theta1 must be finite"),
        ("concurrence", -0.5, "concurrence -0.5 is negative"),
        ("concurrence", "-inf", "concurrence -inf is negative"),
    ],
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


_TAIL = "0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0"  # a valid row after its sample_id
_NOT_ID = "is not a nonnegative int64"


@pytest.mark.parametrize(
    "line, problem",
    [
        ("7,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0", _NOT_ROW),
        ("7,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,zero", _NOT_ROW),
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
    with pytest.raises(BadConfigError, match=f"line 2: {_NOT_ROW}"):
        load_csv(path)
    path.write_text(CSV_HEADER + "\n" + "1_0,0.5,0.5,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0\n" * 3)
    with pytest.raises(BadConfigError, match=f"line 2: {_NOT_ROW}"):
        load_csv(path)


@pytest.mark.parametrize(
    "rows, line",
    [
        ([f"1_0,{_TAIL}", f"11,{_TAIL}"], 2),
        ([f"0,{_TAIL}", f"1,{_TAIL.replace('0.3', '0.3_1', 1)}"], 3),
    ],
)
def test_underscore_fields_name_their_line(tmp_path, rows, line):
    """Python's float() and int() take "1_0"; the reader's one grammar, np.loadtxt's, does not."""
    path = tmp_path / "underscore.csv"
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    for read in (load_csv, verify_csv):
        with pytest.raises(BadConfigError) as info:
            read(path)
        assert str(info.value) == f"{path}, line {line}: {_NOT_ROW}"


@pytest.mark.parametrize(
    "ids, problem",
    [
        (["0", "0", "1"], "line 3: sample_id 0 after 0: ids must strictly increase"),
        (["0", "1.7"], f"line 3: {_NOT_ROW}"),
        (["0", "5", "4"], "line 4: sample_id 4 after 5: ids must strictly increase"),
        (["0", None, "0"], "line 4: sample_id 0 after 0: ids must strictly increase"),
        (["-1.0"], f"line 2: {_NOT_ROW}"),
        (["nan"], f"line 2: {_NOT_ROW}"),
        (["1e+30"], f"line 2: {_NOT_ROW}"),
        # the writer renders ids with %d, so an integer written as a float is refused
        (["7.0"], f"line 2: {_NOT_ROW}"),
        (["1e30"], f"line 2: {_NOT_ROW}"),
        ([""], f"line 2: {_NOT_ROW}"),
        (["-1"], f"line 2: sample_id -1 {_NOT_ID}"),
        (["0", "5", "-3"], f"line 4: sample_id -3 {_NOT_ID}"),
        (["0", "9223372036854775808"], f"line 3: {_NOT_ROW}"),
        # the first bad line in file order is named: an order error before a text error
        (["0", "0", "1.7"], "line 3: sample_id 0 after 0: ids must strictly increase"),
        (["0", "1.7", "0"], f"line 3: {_NOT_ROW}"),
    ],
)
def test_bad_sample_ids_are_rejected(tmp_path, ids, problem):
    path = tmp_path / "ids.csv"
    path.write_text(CSV_HEADER + "\n" + "".join("\n" if i is None else f"{i},{_TAIL}\n" for i in ids))
    for read in (load_csv, verify_csv):
        with pytest.raises(BadConfigError) as info:
            read(path)
        assert str(info.value) == f"{path}, {problem}"


def test_int64_sample_ids_round_trip(tmp_path):
    """Ids at and above 2**53, which a double cannot hold, read back exactly."""
    ids = np.array([0, 2**53 + 1, 2**63 - 1])
    values = np.tile(np.array(_TAIL.split(","), dtype=float), (len(ids), 1))
    path = tmp_path / "ids.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n" + _render_csv(ids, values))
    records = load_csv(path)
    assert records._ids.dtype == np.int64
    assert records._ids.tolist() == [r.sample_id for r in records] == ids.tolist()
    assert verify_csv(path).n_records == len(ids)


def test_repeated_sample_id_across_batches_is_rejected(two_batch_csv, tmp_path):
    # the first row of the second batch repeats the last id of the first
    lines = two_batch_csv[0].read_text().splitlines(keepends=True)
    lines[_BATCH + 1] = lines[_BATCH + 1].replace(f"{_BATCH},", f"{_BATCH - 1},", 1)
    bad = tmp_path / "bad.csv"
    # a bad row later in the same batch is not the first bad line
    for later in (lines[_BATCH + 20], f"1.7,{_TAIL}\n"):
        bad.write_text("".join(lines[: _BATCH + 20] + [later] + lines[_BATCH + 21 :]))
        for read in (load_csv, verify_csv):
            with pytest.raises(BadConfigError) as info:
                read(bad)
            assert str(info.value) == (
                f"{bad}, line {_BATCH + 2}: sample_id {_BATCH - 1} after {_BATCH - 1}: "
                "ids must strictly increase"
            )


def test_blank_and_comment_lines_keep_file_line_numbers(tmp_path):
    path = tmp_path / "gaps.csv"
    body = f"\n0,{_TAIL}\n\n# a comment\n   \n\t\n1,{_TAIL}\n  # indented\n"
    for bad, problem in [
        ("2,0.5,0.3", _NOT_ROW),
        (f"2_0,{_TAIL}", _NOT_ROW),
        (f"1,{_TAIL}", "sample_id 1 after 1: ids must strictly increase"),
    ]:
        path.write_text(CSV_HEADER + "\n" + body + bad + "\n")
        for read in (load_csv, verify_csv):
            with pytest.raises(BadConfigError) as info:
                read(path)
            assert str(info.value) == f"{path}, line 10: {problem}"
    path.write_text(CSV_HEADER + "\n" + body)
    assert [r.sample_id for r in load_csv(path)] == [0, 1]
