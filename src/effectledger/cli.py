"""Command-line front end.

Subcommands:
  run     drive the deterministic simulator from a config, schedule, faults
  verify  check a ledger file's hash chain (optionally against a trusted head)
  inject  corrupt one column of one row inside a state dump file
  graph   print a block's dependency graph as DOT (quadratic in the block's
          analyzable transactions: each is checked against every earlier one)

Exit status is nonzero on verification failure or bad input; a bad input,
including a missing or unreadable file, one that is not UTF-8 text or not
valid JSON, prints `error: ...` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .engine.database import Database
from .errors import ConfigError, EffectLedgerError
from .ledger import verify_ledger
from .network import Network, NetworkConfig, load_fault_script
from .scheduler import access_set, build_dependency_graph
from .smallbank import (
    SmallbankConfig,
    bootstrap_transactions,
    build_schedule,
    generate_workload,
)


def _read_text(path: str) -> str:
    """The file's text; ConfigError naming it when it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def _read_lines(path: str):
    """(number, text) of each line that is not blank or a '#' comment."""
    for number, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield number, line


def _read_schedule(path: str):
    """TSV schedule: tick <TAB> client <TAB> sql per line (_read_lines)."""
    schedule = []
    for number, line in _read_lines(path):
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise ConfigError(f"{path}:{number}: expected tick<TAB>client<TAB>sql")
        try:
            tick = int(parts[0])
        except ValueError:
            raise ConfigError(f"{path}:{number}: tick {parts[0]!r} is not an integer") from None
        schedule.append((tick, parts[1], parts[2]))
    return schedule


def cmd_run(args) -> int:
    config = NetworkConfig.from_dict(_read_json(args.config))
    if args.out:
        config.out_dir = args.out
        os.makedirs(args.out, exist_ok=True)
    elif config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
    if args.schedule:
        schedule = _read_schedule(args.schedule)
    else:
        rng = random.Random(config.seed)
        boot = bootstrap_transactions(args.users, rng)
        workload_cfg = SmallbankConfig(num_users=args.users)
        workload = list(generate_workload(workload_cfg, config.seed, args.smallbank))
        clients = [f"client{i}" for i in range(workload_cfg.clients)]
        schedule = build_schedule(boot, clients) + build_schedule(
            workload, clients, start_tick=len(boot) // 64 + args.warmup_ticks
        )
    faults = ()
    if args.faults:
        faults = load_fault_script(_read_json(args.faults))
    net = Network(config)
    try:
        report = net.run(schedule, faults, max_ticks=args.max_ticks)
    finally:
        net.close()
    sys.stdout.write(report.to_text())
    return 0


def cmd_verify(args) -> int:
    with open(args.ledger, "rb") as fh:
        data = fh.read()
    expected = bytes.fromhex(args.head) if args.head else None
    result = verify_ledger(data, expected_head=expected)
    if result.ok:
        print(f"ok: {result.block_count} blocks")
        return 0
    print(f"FAILED at block {result.first_bad_block}: {result.reason}")
    return 1


def cmd_inject(args) -> int:
    with open(args.state, "rb") as fh:
        db = Database.load_dump(fh.read())
    db.overwrite_cell(args.table, args.pk.split(","), args.column, args.value)
    out = args.out or args.state
    with open(out, "wb") as fh:
        fh.write(db.dump_all())
    print(f"corrupted {args.table}[{args.pk}].{args.column} -> {args.value} in {out}")
    return 0


def cmd_graph(args) -> int:
    lines = [line.strip() for _, line in _read_lines(args.block)]
    catalog = {}
    if args.schema:
        with open(args.schema, "rb") as fh:
            db = Database.load_dump(fh.read())
        catalog = {name: t.schema for name, t in db.tables.items()}
    access = [access_set(i, sql, catalog) for i, sql in enumerate(lines)]
    print(build_dependency_graph(access).to_dot())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectledger",
        description="consensus-on-effects ledger network: simulate, verify, inspect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the deterministic simulator")
    p.add_argument("--config", required=True, help="network config JSON")
    workload = p.add_mutually_exclusive_group(required=True)
    workload.add_argument("--schedule", help="TSV schedule file (tick, client, sql)")
    workload.add_argument("--smallbank", type=int, metavar="N", help="generate N workload txns")
    p.add_argument("--users", type=int, default=1000, help="accounts for --smallbank")
    p.add_argument("--warmup-ticks", type=int, default=8,
                   help="gap between bootstrap and workload for --smallbank")
    p.add_argument("--faults", help="fault script JSON")
    p.add_argument("--max-ticks", type=int, default=10_000)
    p.add_argument("--out", help="directory for ledgers and report")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="verify a ledger file")
    p.add_argument("ledger")
    p.add_argument("--head", help="trusted head hash (hex) to pin the last block")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inject", help="corrupt a row inside a state dump")
    p.add_argument("--state", required=True, help="state dump file")
    p.add_argument("--table", required=True)
    p.add_argument("--pk", required=True, help="primary key value(s), comma-separated")
    p.add_argument("--column", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--out", help="write here instead of in place")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "graph",
        help="dependency graph of a block as DOT; quadratic in its analyzable transactions",
    )
    p.add_argument("block", help="file with one SQL transaction per line")
    p.add_argument("--schema", help="state dump supplying table schemas")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EffectLedgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
