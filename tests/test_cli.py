"""Config parsing, sweep/bounds CSV emission, exit codes, determinism."""
import hashlib
import math
import os
import time
import weakref

import pytest

import trotterlab as tl
from trotterlab import cli, errors, lattice
from trotterlab.errors import lab_bytes, sector_listing

EXPECTED_HEADER = ("model,N,p,Gamma,t,delta,error_kind,error_value,"
                   "bound_cor_s4,bound_thm_s3,delta_prime,p0,"
                   "time_condition_ok,formula_id")

SMALL_CONFIG = """
# two-point Majumdar-Ghosh grid
model = mg
n = 4
p = 1
t = 0.0, 0.1
delta = inf
"""


def parse_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


# ------------------------------------------------------------- parsing

def test_parse_round_trip_defaults():
    config = cli.parse_sweep_config(SMALL_CONFIG)
    assert config.model == "mg"
    assert config.n_list == (4,)
    assert config.t_list == (0.0, 0.1)
    assert math.isinf(config.delta_list[0])
    assert config.bounds is False
    # sweeps run serially; an explicit `workers = 1` changes nothing
    assert cli.parse_sweep_config(SMALL_CONFIG + "workers = 1\n") == config


@pytest.mark.parametrize("text,fragment", [
    ("model = mg\nn = 4\np = 1\nt = 0.1", "missing required key 'delta'"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nflavor = up", "unknown key"),
    ("model = mg\nn = 4\nn = 5\np = 1\nt = 0.1\ndelta = 1", "duplicate key"),
    ("model = mg\nn = 4\np = 1\nt =\ndelta = 1", "empty value"),
    ("model = mg\nn = 4\np = 1\nt 0.1\ndelta = 1", "expected 'key = value'"),
    ("model = mg\nn = 4\np = one\nt = 0.1\ndelta = 1", "cannot parse"),
    ("model = mg\nn = 4\np = 1\nt = 0.1,,0.2\ndelta = 1", "empty list entry"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nbounds = maybe", "true or false"),
    ("model = ising\nn = 4\np = 1\nt = 0.1\ndelta = 1", "unknown model"),
    ("model = mg\nn = 4\np = 3\nt = 0.1\ndelta = 1", "orders must be among"),
    ("model = mg\nn = 4\np = 1\nt = -0.1\ndelta = 1", "nonnegative"),
    ("model = mg\nn = 4\np = 1\nt = nan\ndelta = 1", "finite"),
    ("model = mg\nn = 4\np = 1\nt = 0.1, inf\ndelta = 1", "finite"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = nan", "cutoffs >= 0"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = -1", "cutoffs >= 0"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\neps_small = nan", "(0, 1)"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nnu = nan", "finite nu"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nj0 = inf", "finite nu"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nseed = 3", "unknown key"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\neps_small = 1.5", "(0, 1)"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nworkers = 0", "one chain size at a time"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 1\nworkers = 2", "one chain size at a time"),
    ("model = aklt\nn = 10\np = 1\nt = 0.1\ndelta = 1\ncap = 60000", "unknown key"),
    ("model = mg\nn = 4, 4\np = 1\nt = 0.1\ndelta = 1", "repeated entry"),
    ("model = mg\nn = 4\np = 1, 1\nt = 0.1\ndelta = 1", "repeated entry"),
    ("model = mg\nn = 4\np = 1\nt = 0.1, 0.1\ndelta = 1", "repeated entry"),
    ("model = mg\nn = 4\np = 1\nt = 0.1\ndelta = 0.5, 0.5", "repeated entry"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_sweep_config(text)
    assert fragment in str(info.value)


def no_lab(*args, **kwargs):
    raise AssertionError("a lab was built before the sweep was admitted")


def no_assembly(*args, **kwargs):
    raise AssertionError("a sector was assembled before the sweep was admitted")


@pytest.mark.parametrize("text,fragment", [
    ("model = mg\nn = 2\np = 1\nt = 0.1\ndelta = 1", "at least 3 sites"),
    ("model = aklt\nn = 3\np = 1\nt = 0.0, 0.1\ndelta = 1.0\nbounds = true\n"
     "eps_small = 1e-320", "2 N / eps_small is not finite"),
    ("model = aklt\nn = 11\np = 1\nt = 0.1\ndelta = 1", "bytes of physical memory"),
    # every lab is admitted before the first one runs
    ("model = aklt\nn = 3, 11\np = 1\nt = 0.1\ndelta = 1", "aklt N=11 needs"),
    ("model = mg\nn = 16\np = 1\nt = 0.1\ndelta = 1", "mg N=16 needs"),
])
def test_sweep_rejects_before_any_lab(text, fragment, monkeypatch):
    # checks that need a model run once, at the start of run_sweep; the sizes
    # are refused on a machine of 8 GiB
    monkeypatch.setattr(errors, "assemble", no_assembly)
    monkeypatch.setattr(lattice, "physical_memory", lambda: 8 * 2 ** 30)
    config = cli.parse_sweep_config(text)
    with pytest.raises(cli.ConfigError) as info:
        cli.run_sweep(config)
    assert fragment in str(info.value)


def test_huge_chain_refused_quickly(monkeypatch):
    # N log2(d) alone puts one dense matrix beyond memory: d^N is never formed
    monkeypatch.setattr(cli, "ErrorLab", no_lab)
    start = time.perf_counter()
    with pytest.raises(cli.ConfigError, match="bytes of physical memory"):
        cli.run_sweep(cli.parse_sweep_config(
            "model = aklt\nn = 30000000\np = 1\nt = 0.1\ndelta = 1"))
    assert time.perf_counter() - start < 1.0


def test_admission_follows_orders(monkeypatch):
    # a lab is admitted at lab_bytes of its sectors at every order: no stage
    # unitary is cached
    spec = tl.build_mg(6)
    need = lab_bytes(spec, sector_listing(spec))
    monkeypatch.setattr(lattice, "physical_memory", lambda: need)
    base = "model = mg\nt = 0.1\ndelta = 1\n"

    def sweep(text: str) -> list[tuple[str, str]]:
        rows = parse_rows(cli.run_sweep(cli.parse_sweep_config(base + text)))
        return [(row["N"], row["p"]) for row in rows]

    assert sweep("n = 6\np = 1") == [("6", "1")]
    assert sweep("n = 6\np = 1, 2, 4, 6") == [("6", "1"), ("6", "2"), ("6", "4"), ("6", "6")]
    monkeypatch.setattr(lattice, "physical_memory", lambda: need - 1)
    with pytest.raises(cli.ConfigError, match=f"needs {need} bytes, more than "
                                              f"the {need - 1} bytes"):
        sweep("n = 6\np = 1")
    # labs run one at a time: each chain size is admitted on its own (MG N=5
    # needs less than N=6)
    monkeypatch.setattr(lattice, "physical_memory", lambda: need)
    assert sweep("n = 5, 6\np = 6") == [("5", "6"), ("6", "6")]
    monkeypatch.setattr(lattice, "physical_memory", lambda: need - 1)
    with pytest.raises(cli.ConfigError, match=f"mg N=6 needs {need} bytes"):
        sweep("n = 5, 6\np = 1")


def test_sweep_drops_each_lab_once_its_rows_are_done(monkeypatch):
    task_rows, alive = cli._task_rows, []

    def tracking(config, n, lab):
        alive.append(weakref.ref(lab))
        assert [ref() is not None for ref in alive] == [False] * (len(alive) - 1) + [True]
        return task_rows(config, n, lab)

    monkeypatch.setattr(cli, "_task_rows", tracking)
    cli.run_sweep(cli.parse_sweep_config("model = aklt\nn = 3, 4, 5\np = 1\nt = 0.1\ndelta = 1"))
    assert len(alive) == 3 and alive[-1]() is None


# -------------------------------------------------------------- sweeps

def test_sweep_grid_shape_and_order():
    config = cli.parse_sweep_config(
        "model = aklt\nn = 3, 4, 5, 6\np = 1, 2\nt = 0.1\ndelta = 0.5, 1.0, inf")
    text = cli.run_sweep(config)
    lines = text.splitlines()
    assert lines[0] == EXPECTED_HEADER
    rows = parse_rows(text)
    assert len(rows) == 24
    keys = [(r["model"], int(r["N"]), int(r["p"]), float(r["t"]), float(r["delta"]))
            for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row["error_kind"] == ("full" if row["delta"] == "inf" else "projected")
        assert 0.0 <= float(row["error_value"]) <= 2.0
        assert row["bound_cor_s4"] == ""  # bounds not requested


def test_sweep_determinism_hash(tmp_path):
    config = cli.parse_sweep_config(SMALL_CONFIG)
    digests = {hashlib.sha256(cli.run_sweep(config).encode()).hexdigest()
               for _ in range(2)}
    assert len(digests) == 1


def test_sweep_builds_each_chain_size_once(monkeypatch):
    built = []
    build = cli._build_model

    def counting(*args):
        built.append(args[1])
        return build(*args)

    monkeypatch.setattr(cli, "_build_model", counting)
    cli.run_sweep(cli.parse_sweep_config("model = mg\nn = 4, 5\np = 1\nt = 0.1\ndelta = inf"))
    assert built == [4, 5]


def test_sweep_bound_columns_at_zero_time():
    config = cli.parse_sweep_config(
        "model = mg\nn = 4\np = 1\nt = 0.0\ndelta = 1.0\nbounds = true")
    rows = parse_rows(cli.run_sweep(config))
    (row,) = rows
    # at t=0 both bound families collapse to the slack eps
    assert row["bound_cor_s4"] == repr(0.01)
    assert row["bound_thm_s3"] == repr(0.01)
    # the t=0 difference is two eigh-reconstructed identities, so only ~1e-15
    assert float(row["error_value"]) <= 1e-12
    assert row["time_condition_ok"] == "true"
    # non-applicable columns stay empty in sweep rows
    assert row["delta_prime"] == "" and row["p0"] == "" and row["formula_id"] == ""


def test_sweep_bounds_skip_unrestricted_rows():
    config = cli.parse_sweep_config(
        "model = mg\nn = 4\np = 1\nt = 0.1\ndelta = inf\nbounds = true")
    (row,) = parse_rows(cli.run_sweep(config))
    assert row["bound_cor_s4"] == "" and row["bound_thm_s3"] == ""


def test_sweep_writes_atomically(tmp_path):
    out = tmp_path / "sweep.csv"
    # another writer's fixed-name temp file must survive untouched
    bystander = tmp_path / "sweep.csv.tmp"
    bystander.write_text("not ours", encoding="utf-8")
    config = cli.parse_sweep_config(SMALL_CONFIG + f"out = {out}\n")
    text = cli.run_sweep(config)
    assert out.read_text(encoding="utf-8") == text
    assert bystander.read_text(encoding="utf-8") == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.csv.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


# -------------------------------------------------------------- bounds

BOUNDS_HEADER = "N,k,g,Gamma,p,delta,t,eps_total,eps_small"


def test_bounds_golden_delta_prime():
    text = BOUNDS_HEADER + "\n16,2,2.0,2,1,1.0,0.01,0.01,0.01\n"
    csv_text, diagnostics = cli.run_bounds(text)
    assert diagnostics == []
    rows = parse_rows(csv_text)
    by_id = {row["formula_id"]: row for row in rows}
    # shortest round-trip decimal makes the worked example bit-identical
    assert by_id["cor_s4"]["delta_prime"] == "107.95378764268683"
    assert by_id["thm_s3"]["p0"] == "9"
    assert set(by_id) == {"cor_s4", "thm_s3", "thm_s1", "prop_s5_const",
                          "prop_s5_general"}


def test_bounds_zero_time_rows_equal_slack():
    text = BOUNDS_HEADER + "\n16,2,2.0,2,1,1.0,0.0,0.01,0.01\n"
    csv_text, _ = cli.run_bounds(text)
    by_id = {row["formula_id"]: row for row in parse_rows(csv_text)}
    assert by_id["cor_s4"]["bound_cor_s4"] == repr(0.01)
    assert by_id["thm_s3"]["bound_thm_s3"] == repr(0.01)


def test_bounds_weakly_correlated_row_present():
    text = (BOUNDS_HEADER + ",c_conc,energy_expect\n"
            "100,2,1.0,2,1,0.0,1.0,0.1,0.01,1.0,2.0\n")
    csv_text, diagnostics = cli.run_bounds(text)
    assert diagnostics == []
    by_id = {row["formula_id"]: row for row in parse_rows(csv_text)}
    row = by_id["weakly_corr"]
    # delta_prime column carries <H> + x = 2 + sqrt(200 ln 40)
    assert float(row["delta_prime"]) == pytest.approx(
        2.0 + math.sqrt(200.0 * math.log(40.0)), rel=1e-12)
    assert int(row["error_value"]) >= 1


def test_bounds_rejects_bad_rows_with_diagnostics():
    text = (BOUNDS_HEADER + "\n"
            "16,2,2.0,2,1,1.0,0.01,0.01,0.01\n"
            "16,2,-1.0,2,1,1.0,0.01,0.01,0.01\n"
            "16,2,nan,2,1,1.0,0.01,0.01,0.01\n"
            "16,2,2.0,2,1,1.0,inf,0.01,0.01\n"
            "16,2,2.0,2,1,1.0,0.01,0.01,0.01\n"
            "16,2,2.0,2,6,1.0,1e100,0.01,0.01\n"
            "16,2,2.0,2,1,1.0,1e300,0.01,0.01\n"
            "16,2,2.0,2,1,1.0,0.01,0.01,0.01\n"
            "3,2,2.0,2,1,1.0,0.1,0.01,1e-320\n")
    csv_text, diagnostics = cli.run_bounds(text)
    assert len(diagnostics) == 5
    assert diagnostics[0].startswith("row 3: rejected")
    assert "positive" in diagnostics[0]
    assert diagnostics[1].startswith("row 4: rejected") and "finite" in diagnostics[1]
    assert diagnostics[2].startswith("row 5: rejected") and "finite" in diagnostics[2]
    # the step-count formula overflows at t = 1e300
    assert diagnostics[3].startswith("row 8: rejected")
    # ln(2 N / eps_small) of the generic bound would overflow
    assert diagnostics[4].startswith("row 10: rejected") and "eps_small" in diagnostics[4]
    # good rows still evaluated: 4 inputs x 5 families
    rows = parse_rows(csv_text)
    assert len(rows) == 20
    # (scale t)**6 overflows at t = 1e100: both bounds are vacuous
    huge = [row for row in rows if row["t"] == "1e+100"]
    assert [row["bound_cor_s4"] for row in huge if row["formula_id"] == "cor_s4"] == ["inf"]
    assert [row["bound_thm_s3"] for row in huge if row["formula_id"] == "thm_s3"] == ["inf"]


def test_bounds_missing_column_is_config_error():
    with pytest.raises(cli.ConfigError, match="missing columns"):
        cli.run_bounds("N,k,g\n16,2,2.0\n")


# ---------------------------------------------------------- exit codes

def test_main_sweep_stdout_and_exit_zero(tmp_path, capsys):
    path = tmp_path / "grid.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == EXPECTED_HEADER
    assert len(out.splitlines()) == 3
    # at t = 1e100 no phase exp(-iEt) has a correct digit: refused, not printed
    path.write_text("model = aklt\nn = 3\np = 4\nt = 1e100\ndelta = 1.0\nbounds = true",
                    encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == 2
    assert "round off" in capsys.readouterr().err


def test_sweep_time_admitted_up_to_phase_precision(tmp_path, capsys):
    # AKLT N=3 has N g = 6, so the largest admitted t is 1e-12 * 2**53 / 6 ~ 1501.2
    assert cli.PHASE_ROUNDOFF_LIMIT * 2.0 ** 53 / 6 == pytest.approx(1501.2, abs=0.1)
    path = tmp_path / "grid.cfg"
    base = "model = aklt\nn = 3\np = 4\ndelta = 1.0\nbounds = true\nt = "
    path.write_text(base + "0.1, 1500", encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == 0
    rows = parse_rows(capsys.readouterr().out)
    assert [row["t"] for row in rows] == ["0.1", "1500.0"]
    assert all(0.0 <= float(row["error_value"]) <= 2.0 for row in rows)
    for times in ("1502", "0.1, 1e100"):
        with pytest.raises(cli.ConfigError, match=r"key 't': .* aklt N=3 round off"):
            cli.run_sweep(cli.parse_sweep_config(base + times))


def test_main_flag_overrides_config(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == EXPECTED_HEADER


def test_main_missing_config_exits_two(tmp_path, capsys):
    assert cli.main(["sweep", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "grid.cfg"
    path.write_text("model = mg\nn = 4\np = 3\nt = 0.1\ndelta = 1", encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == 2
    path.write_text("model = mg\nn = 4\np = 1\nt = nan\ndelta = 1", encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    # input that is not UTF-8 is a config error, not a traceback
    path.write_bytes(b"model = mg\xff\n")
    assert cli.main(["sweep", str(path)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    inputs = tmp_path / "inputs.csv"
    inputs.write_bytes(BOUNDS_HEADER.encode() + b"\n16,2,2.0,\xff\n")
    assert cli.main(["bounds", str(inputs)]) == 2
    assert "cannot read inputs" in capsys.readouterr().err


def test_main_usage_error_exits_two(capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--seed", "-1"]) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err


def test_main_bounds_rejection_exits_one(tmp_path, capsys):
    path = tmp_path / "inputs.csv"
    path.write_text(BOUNDS_HEADER + "\n16,2,-1.0,2,1,1.0,0.01,0.01,0.01\n",
                    encoding="utf-8")
    assert cli.main(["bounds", str(path)]) == 1
    assert "rejected" in capsys.readouterr().err
    path.write_text(BOUNDS_HEADER + "\n16,2,2.0,2,1,1.0,1e300,0.01,0.01\n",
                    encoding="utf-8")
    assert cli.main(["bounds", str(path)]) == 1
    assert "row 2: rejected" in capsys.readouterr().err


def test_main_verify_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    assert cli.main(["verify", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    assert not any(line.startswith("FAIL") for line in lines)
    table = out.read_text(encoding="utf-8").splitlines()
    assert table[0] == "check,status,observed,threshold"
    assert len(table) == len(lines)  # one row per check plus header


def test_main_dump_model_round_trip(tmp_path):
    out = tmp_path / "model.json"
    assert cli.main(["dump-model", "--model", "mg", "--n", "4",
                     "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    spec = tl.spec_from_json(text)
    assert spec.model_tag == "mg" and spec.lattice.num_sites == 4
    assert tl.spec_to_json(spec) + "\n" == text


def test_main_dump_model_rejects_small_chain(monkeypatch, capsys):
    assert cli.main(["dump-model", "--model", "ising", "--n", "4"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert cli.main(["dump-model", "--model", "mg", "--n", "2"]) == 2
    assert "at least" in capsys.readouterr().err
    assert cli.main(["dump-model", "--model", "lr_heisenberg", "--n", "3",
                     "--nu", "nan"]) == 2
    assert "finite" in capsys.readouterr().err
    # no dense matrix is built, so only a lattice of 2^64 states or more is refused
    monkeypatch.setattr(lattice, "physical_memory", lambda: 16 * 3 ** 12)
    assert cli.main(["dump-model", "--model", "aklt", "--n", "7"]) == 0
    capsys.readouterr()
    assert cli.main(["dump-model", "--model", "aklt", "--n", "100000"]) == 2
    assert "bytes of physical memory" in capsys.readouterr().err


def test_main_dump_model_builds_no_dense_matrix(capsys):
    assert cli.main(["dump-model", "--model", "aklt", "--n", "10"]) == 0
    spec = tl.spec_from_json(capsys.readouterr().out)
    assert spec.model_tag == "aklt" and spec.lattice.hilbert_dim == 3 ** 10


@pytest.mark.parametrize("command", ["sweep", "bounds", "verify", "dump-model"])
def test_output_path_checked_before_work(command, tmp_path, monkeypatch, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    inputs = tmp_path / "inputs.csv"
    inputs.write_text(BOUNDS_HEADER + "\n16,2,2.0,2,1,1.0,0.01,0.01,0.01\n",
                      encoding="utf-8")
    argv = {"sweep": ["sweep", str(config)], "bounds": ["bounds", str(inputs)],
            "verify": ["verify"],
            "dump-model": ["dump-model", "--model", "mg", "--n", "4"]}[command]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("_task_rows", "run_bounds", "run_verify", "_build_model"):
        monkeypatch.setattr(cli, name, no_work)
    for out, fragment in ((tmp_path / "missing" / "x.csv", "does not exist"),
                          (tmp_path, "is a directory")):
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
