"""End-to-end runs of the command-line front end via main()."""

import json
from decimal import Decimal

import pytest

from effectledger.cli import main
from effectledger.engine.database import Database
from effectledger.ledger import Ledger
from effectledger.network import REPORT_HEADER

CONFIG = {
    "organizations": [{"id": "O1"}, {"id": "O2"}],
    "min_matching": 2,
    "blocksize": 2,
    "block_timeout": 2,
}

SCHEDULE_LINES = [
    "# tick\tclient\tsql",
    "0\talice\tCREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));",
    "0\talice\tINSERT INTO acct (id, bal) VALUES (1, 100), (2, 200);",
    "2\tbob\tUPDATE acct SET bal = bal + 1 WHERE id = 1;",
    "3\tbob\tUPDATE acct SET bal = bal + 1 WHERE id = 2;",
]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


@pytest.fixture
def schedule_file(tmp_path):
    path = tmp_path / "schedule.tsv"
    path.write_text("\n".join(SCHEDULE_LINES) + "\n")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_run_prints_report(config_file, schedule_file, capsys):
    assert run_cli("run", "--config", config_file, "--schedule", schedule_file) == 0
    out = capsys.readouterr().out
    assert out.startswith(REPORT_HEADER)
    assert "\tCOMMIT\t" in out


def test_run_refuses_a_config_naming_a_recovery_strategy(tmp_path, schedule_file, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**CONFIG, "recovery_strategy": "full_replay"}))
    assert run_cli("run", "--config", str(path), "--schedule", schedule_file) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: recovery_strategy is gone: ")
    assert captured.out == ""


def test_run_writes_artifacts(config_file, schedule_file, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert (
        run_cli(
            "run",
            "--config",
            config_file,
            "--schedule",
            schedule_file,
            "--out",
            str(out_dir),
        )
        == 0
    )
    capsys.readouterr()
    assert (out_dir / "report.tsv").exists()
    assert (out_dir / "O1.ledger").exists() and (out_dir / "O2.ledger").exists()


def test_run_smallbank_generates_workload(config_file, capsys):
    assert (
        run_cli(
            "run", "--config", config_file, "--smallbank", "6", "--users", "8"
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("\tCUT\t") >= 2


def test_run_applies_fault_script(config_file, schedule_file, tmp_path, capsys):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"at_tick": 4, "kind": "kill_org", "org": "O2"}]))
    assert (
        run_cli(
            "run",
            "--config",
            config_file,
            "--schedule",
            schedule_file,
            "--faults",
            str(faults),
        )
        == 0
    )
    assert "O2\tKILL" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["corrupt_row", "corrupt_snapshot"])
def test_run_reports_a_fault_on_a_missing_table_and_goes_on(
    config_file, schedule_file, tmp_path, capsys, kind
):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"at_tick": 3, "kind": kind, "org": "O1", "table": "nope",
                                   "pk": [1], "column": "bal", "value": 1}]))
    argv = ("run", "--config", config_file, "--schedule", schedule_file, "--faults", str(faults))
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert "3\tO1\tCORRUPT_MISSED\t0" in out
    assert out.endswith("# summary: org=O1 committed=2\n# summary: org=O2 committed=2\n")


def test_run_requires_some_workload(config_file):
    with pytest.raises(SystemExit):
        run_cli("run", "--config", config_file)


# ---- verify ----


@pytest.fixture
def ledger_file(config_file, schedule_file, tmp_path, capsys):
    out_dir = tmp_path / "led"
    run_cli(
        "run", "--config", config_file, "--schedule", schedule_file,
        "--out", str(out_dir),
    )
    capsys.readouterr()
    return out_dir / "O1.ledger"


def test_verify_ok(ledger_file, capsys):
    assert run_cli("verify", str(ledger_file)) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: ")


def test_verify_detects_tampering(ledger_file, capsys):
    data = bytearray(ledger_file.read_bytes())
    data[len(data) // 3] ^= 0xFF
    ledger_file.write_bytes(bytes(data))
    assert run_cli("verify", str(ledger_file)) == 1
    assert "FAILED at block" in capsys.readouterr().out


def test_verify_with_head_pin(ledger_file, capsys):
    head = Ledger.load(str(ledger_file)).head_hash().hex()
    assert run_cli("verify", str(ledger_file), "--head", head) == 0
    capsys.readouterr()
    assert run_cli("verify", str(ledger_file), "--head", "ab" * 32) == 1
    assert "FAILED" in capsys.readouterr().out


# ---- inject ----


@pytest.fixture
def dump_file(tmp_path):
    db = Database()
    assert db.execute_transaction(
        "CREATE TABLE acct (id INT, bal DECIMAL(12, 2), PRIMARY KEY (id));"
    ).success
    assert db.execute_transaction(
        "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200);"
    ).success
    path = tmp_path / "state.dump"
    path.write_bytes(db.dump_all())
    return path


def test_inject_corrupts_one_cell(dump_file, capsys):
    assert (
        run_cli(
            "inject", "--state", str(dump_file), "--table", "acct",
            "--pk", "1", "--column", "bal", "--value", "999999.99",
        )
        == 0
    )
    assert "corrupted" in capsys.readouterr().out
    reloaded = Database.load_dump(dump_file.read_bytes())
    rows = reloaded.execute_transaction("SELECT id, bal FROM acct;").outputs[0]
    assert (1, Decimal("999999.99")) in rows
    assert (2, Decimal("200.00")) in rows


def test_inject_writes_to_out_path(dump_file, tmp_path, capsys):
    out = tmp_path / "tampered.dump"
    assert (
        run_cli(
            "inject", "--state", str(dump_file), "--table", "acct",
            "--pk", "2", "--column", "bal", "--value", "0",
            "--out", str(out),
        )
        == 0
    )
    capsys.readouterr()
    original = Database.load_dump(dump_file.read_bytes())
    tampered = Database.load_dump(out.read_bytes())
    assert original.state_hash() != tampered.state_hash()


def test_inject_unknown_row_fails(dump_file, capsys):
    assert run_cli(
        "inject", "--state", str(dump_file), "--table", "acct",
        "--pk", "42", "--column", "bal", "--value", "0",
    ) == 2
    assert capsys.readouterr().err == "error: no row with key ('42',) in acct\n"


@pytest.fixture
def mixed_dump(tmp_path):
    db = Database()
    assert db.execute_transaction(
        "CREATE TABLE mixed (k INT, s TEXT, d DECIMAL(10, 2), v INT, w TEXT, "
        "x DECIMAL(10, 2), PRIMARY KEY (k, s, d));"
    ).success
    assert db.execute_transaction("INSERT INTO mixed VALUES (1, '5', 2.50, 0, 'z', 0);").success
    path = tmp_path / "mixed.dump"
    path.write_bytes(db.dump_all())
    return path


@pytest.mark.parametrize(
    "column, raw, stored",
    [("v", "7", 7), ("w", "y", "y"), ("w", "5", "5"), ("x", "-1", Decimal("-1")),
     ("x", "3.25", Decimal("3.25"))],
)
def test_inject_decodes_int_text_and_decimal_keys_and_values(mixed_dump, column, raw, stored,
                                                             capsys):
    assert run_cli(
        "inject", "--state", str(mixed_dump), "--table", "mixed",
        "--pk", "1,5,2.50", "--column", column, "--value", raw,
    ) == 0
    capsys.readouterr()
    table = Database.load_dump(mixed_dump.read_bytes()).table("mixed")
    (row,) = table.rows.values()
    assert row[table.schema.column_index(column)] == stored


@pytest.mark.parametrize("pk", ["2,5,2.50", "1,6,2.50", "1,5,2.51", "1,5"])
def test_inject_rejects_a_missing_row(mixed_dump, pk, capsys):
    assert run_cli(
        "inject", "--state", str(mixed_dump), "--table", "mixed",
        "--pk", pk, "--column", "v", "--value", "1",
    ) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_inject_matches_a_decimal_key_at_the_column_scale(mixed_dump, capsys):
    args = ("inject", "--state", str(mixed_dump), "--table", "mixed", "--column", "v",
            "--value", "7")
    assert run_cli(*args, "--pk", "1,5,2.505") == 2
    assert run_cli(*args, "--pk", "1,5,2.5") == 0
    capsys.readouterr()
    (row,) = Database.load_dump(mixed_dump.read_bytes()).table("mixed").rows.values()
    assert row[3] == 7


@pytest.mark.parametrize(
    "pk, column, value, message",
    [
        ("abc,5,2.50", "v", "1", "column k: 'abc' is not a number"),
        ("1,5,2.50", "v", "1.5", "column v: '1.5' is not an INT"),
        ("1,5,2.50", "x", "NaN", "column x: 'NaN' is not a number"),
    ],
)
def test_inject_rejects_a_bad_literal(mixed_dump, capsys, pk, column, value, message):
    before = mixed_dump.read_bytes()
    argv = ("inject", "--state", str(mixed_dump), "--table", "mixed", "--pk", pk,
            "--column", column, "--value", value)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert mixed_dump.read_bytes() == before


# ---- graph ----


def test_graph_emits_dot(tmp_path, dump_file, capsys):
    block = tmp_path / "block.sql"
    block.write_text(
        "UPDATE acct SET bal = 0 WHERE id = 1;\n"
        "UPDATE acct SET bal = 0 WHERE id = 2;\n"
        "UPDATE acct SET bal = 1 WHERE id = 1;\n"
    )
    assert run_cli("graph", str(block), "--schema", str(dump_file)) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph block {")
    assert "t0 -> t2;" in out
    assert "t0 -> t1;" not in out


def test_graph_without_schema_serializes(tmp_path, capsys):
    block = tmp_path / "block.sql"
    block.write_text("INSERT INTO t (k) VALUES (1);\nINSERT INTO t (k) VALUES (2);\n")
    assert run_cli("graph", str(block)) == 0
    # unknown schema: both claim the whole table, so they conflict
    assert "t0 -> t1;" in capsys.readouterr().out


# ---- error mapping ----


def test_domain_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"organizations": [], "min_matching": 1}))
    assert run_cli("run", "--config", str(bad), "--smallbank", "2") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"organizations": [{"id": "O1", "sessions": "two"}], "min_matching": 1},
            "organization O1: sessions must be an integer, not 'two'",
        ),
        ({"organizations": [{"sessions": 1}], "min_matching": 1}, "organization: missing 'id'"),
        ({**CONFIG, "durable": "false"}, "config: durable must be true or false, not 'false'"),
        (
            {"organizations": [{"id": "O1", "quirks": {"decimal_rounding": "bogus"}}],
             "min_matching": 1},
            "organization O1: unknown decimal_rounding 'bogus'; "
            "choose from half_even, truncate",
        ),
        (
            {"organizations": [{"id": "O1", "quirks": "x"}], "min_matching": 1},
            "organization O1: quirks must be an object, not 'x'",
        ),
        (
            {"organizations": [{"id": "O1", "quirks": {"update_noop_emits_digest": "false"}}],
             "min_matching": 1},
            "organization O1: update_noop_emits_digest must be true or false, not 'false'",
        ),
        ({**CONFIG, "checkpoint_capacity": 0}, "checkpoint_capacity must be at least 1"),
    ],
)
def test_run_rejects_a_mistyped_config_field(tmp_path, schedule_file, capsys, config, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(bad), "--schedule", schedule_file) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "fault, message",
    [
        (
            {"at_tick": 1, "kind": "drop_votes", "until_tick": "3"},
            "until_tick must be an integer, not '3'",
        ),
        ({"at_tick": "soon", "kind": "kill_org"}, "at_tick must be an integer, not 'soon'"),
    ],
)
def test_run_rejects_a_mistyped_fault_tick(
    config_file, schedule_file, tmp_path, capsys, fault, message
):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([fault]))
    argv = ("run", "--config", config_file, "--schedule", schedule_file, "--faults", str(faults))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: fault: {message}\n"


BAD_FAULTS = [
    ({"kind": "corrupt_row", "org": "O1", "table": "acct", "pk": ["abc"], "column": "bal",
      "value": 1}, "corrupt_row: column id: 'abc' is not a number"),
    ({"kind": "corrupt_row", "org": "O1", "table": "acct", "pk": [1], "column": "id",
      "value": 1.5}, "corrupt_row: column id: 1.5 is not an INT"),
    ({"kind": "corrupt_row", "org": "O1", "table": "acct", "pk": [1], "column": "bal",
      "value": "Infinity"}, "corrupt_row: column bal: 'Infinity' is not a number"),
    ({"kind": "corrupt_row", "org": "O1", "table": "acct", "pk": [1], "column": "nope",
      "value": 1}, "corrupt_row: table acct: unknown column nope"),
    ({"kind": "corrupt_row", "org": "O9", "table": "acct", "pk": [1], "column": "bal",
      "value": 1}, "fault corrupt_row: org 'O9' is not an organization"),
    ({"kind": "kill_org", "org": "O9"}, "fault kill_org: org 'O9' is not an organization"),
    ({"kind": "drop_votes", "responder": "O9"},
     "fault drop_votes: responder 'O9' is not an organization"),
    ({"kind": "corrupt_snapshot", "org": "O1", "table": "acct", "pk": [1], "column": "nope",
      "value": 1}, "corrupt_snapshot: table acct: unknown column nope"),
    ({"kind": "corrupt_snapshot", "org": "O1", "table": "acct", "pk": [1, 1], "column": "bal",
      "value": 1}, "corrupt_snapshot: table acct has a 1-column key"),
]


@pytest.mark.parametrize("fault, message", BAD_FAULTS)
def test_run_rejects_a_fault_with_a_bad_target(tmp_path, schedule_file, capsys, fault, message):
    config = tmp_path / "net.json"
    config.write_text(json.dumps({**CONFIG, "checkpoint_interval": 1}))
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"at_tick": 3, **fault}]))
    argv = ("run", "--config", str(config), "--schedule", schedule_file, "--faults", str(faults))
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_refuses_a_vote_rule_that_ends_before_it_starts(
    config_file, schedule_file, tmp_path, capsys
):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"at_tick": 3, "kind": "drop_votes", "until_tick": 1}]))
    argv = ("run", "--config", config_file, "--schedule", schedule_file, "--faults", str(faults))
    assert run_cli(*argv) == 2
    message = "fault drop_votes: until_tick 1 is not after at_tick 3"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_schedule_rejects_a_non_integer_tick(config_file, tmp_path):
    schedule = tmp_path / "schedule.tsv"
    schedule.write_text(SCHEDULE_LINES[1] + "\nx\tbob\tSELECT * FROM acct;\n")
    with pytest.raises(SystemExit) as caught:
        run_cli("run", "--config", config_file, "--schedule", str(schedule))
    # a string exit code is printed to stderr and exits with status 1
    assert caught.value.code == f"{schedule}:2: tick 'x' is not an integer"


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")
