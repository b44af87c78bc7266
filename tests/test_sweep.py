import dataclasses
import hashlib

import numpy as np
import pytest

import pumplimit.scheme
from pumplimit import (
    BadConfigError,
    BadParameterError,
    InvalidDensityMatrixError,
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
    _RENDER_CHUNK,
    COLUMNS,
    CSV_HEADER,
    _columns_from_csv,
    _evaluate,
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
    ],
)
def test_config_rejected(kwargs):
    with pytest.raises(BadConfigError):
        SweepConfig(**kwargs)


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


def _render_oracle(batch) -> bytes:
    """The per-value renderer the template must match byte for byte."""
    ids = batch["sample_id"]
    values = np.concatenate(
        [
            batch["columns"],
            batch["concurrence"][:, None],
            batch["bound_general"][:, None],
            batch["bound_2d"][:, None],
            batch["spectrum"],
        ],
        axis=1,
    )
    lines = []
    for i in range(ids.shape[0]):
        lines.append(str(int(ids[i])) + "," + ",".join(format(x, ".17g") for x in values[i]))
    return ("\n".join(lines) + "\n").encode("ascii")


def test_render_matches_oracle_on_special_values():
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0, 0.1]
    rng = np.random.default_rng(4)
    values = rng.choice(special, size=(25, 15))
    values[0] = special[:10] + special[:5]
    batch = {
        "sample_id": np.arange(2**31 - 3, 2**31 + 22, dtype=np.int64) * 3,
        "columns": values[:, :8],
        "concurrence": values[:, 8],
        "bound_general": values[:, 9],
        "bound_2d": values[:, 10],
        "spectrum": values[:, 11:],
    }
    rendered = _render_csv(batch)
    assert rendered == _render_oracle(batch)
    assert rendered.startswith(b"6442450935,nan,inf,-inf,-0,0,4.9406564584124654e-324,1.0000000000000001e+300,")


def test_render_matches_oracle_across_chunk_boundaries():
    n = 2 * _RENDER_CHUNK + 37
    batch = _evaluate(SweepConfig(n_samples=n, seed=21), 0, n)
    rendered = _render_csv(batch)
    assert rendered == _render_oracle(batch)
    assert rendered.count(b"\n") == n


def test_gate_failure_names_sample_id(monkeypatch):
    original = pumplimit.scheme._density_stack
    bad = (37, 60)  # positions inside the second batch

    def with_bad_states(*args):
        rhos = original(*args)
        if rhos.shape[0] < _BATCH:
            for k in bad:
                rhos[k] = np.diag([1.5, -0.5, 0.0, 0.0])
        return rhos

    monkeypatch.setattr(pumplimit.scheme, "_density_stack", with_bad_states)
    with pytest.raises(InvalidDensityMatrixError, match="negative eigenvalue") as info:
        run_sweep(SweepConfig(n_samples=_BATCH + 100, seed=6))
    assert f"sample_id={_BATCH + bad[0]}:" in str(info.value)


def _records_oracle(batch) -> list:
    """The per-row record builder that column-backed records must match."""
    out = []
    cols = batch["columns"]
    for i, sid in enumerate(batch["sample_id"]):
        params = SchemeParams(**{name: cols[i, j] for j, name in enumerate(COLUMNS)})
        out.append(
            SweepRecord(
                sample_id=int(sid),
                params=params,
                concurrence=float(batch["concurrence"][i]),
                bound_general=float(batch["bound_general"][i]),
                bound_2d=float(batch["bound_2d"][i]),
                spectrum=batch["spectrum"][i].copy(),
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
    expected = _records_oracle(_evaluate(cfg, 0, _BATCH)) + _records_oracle(
        _evaluate(cfg, _BATCH, cfg.n_samples)
    )
    _assert_same_records(run_sweep(cfg), expected)
    loaded = [r for batch in _columns_from_csv(path) for r in _records_oracle(batch)]
    _assert_same_records(load_csv(path), loaded)
    _assert_same_records(loaded, expected)


def test_sweep_records_sequence():
    records = run_sweep(SweepConfig(n_samples=300, seed=12))
    assert isinstance(records, SweepRecords)
    assert len(records) == 300
    assert records[-1].sample_id == records[299].sample_id == 299
    assert records[np.int64(7)].sample_id == 7
    part = records[100:250:50]
    assert isinstance(part, SweepRecords)
    assert [r.sample_id for r in part] == [100, 150, 200]
    assert np.shares_memory(part._cols["concurrence"], records._cols["concurrence"])
    assert [r.sample_id for r in records] == list(range(300))
    assert len(records[300:]) == 0
    for index in (300, -301):
        with pytest.raises(IndexError):
            records[index]
    first = records[0]
    first.spectrum[0] = -1.0  # every access hands out its own spectrum
    assert records[0].spectrum[0] != -1.0


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
    ],
)
def test_bad_sample_ids_are_rejected(tmp_path, ids, problem):
    path = tmp_path / "ids.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(f"{i},{_TAIL}\n" if i else "\n" for i in ids))
    for read in (load_csv, verify_csv):
        with pytest.raises(BadConfigError) as info:
            read(path)
        assert str(info.value) == f"{path}, {problem}"


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
