"""Command-line entry point.

Exit codes are stable: 0 success, 1 invalid configuration or arguments (or
a run too large for memory, or a sweep worker process that died), 2
validation failure (the monotonicity check found violations), 3 I/O error.

Human-readable text goes to stdout for run/sweep and to stderr for
validate/oracle (whose machine-readable JSON report owns stdout); --quiet
suppresses the human text but never the JSON artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, default_scenario, scenario_from_dict
from .errors import ConfigError
from .metrics import Score, correlation_oracle, validate_monotonicity
from .orchestrator import replace_directory, run, sweep, write_run_outputs, write_sweep_outputs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _load_config(path: str) -> ScenarioConfig:
    # Read without checking is_file() first: a pipe such as /dev/fd/63 from a
    # shell's <(...) is no regular file, yet it reads like one.
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {p}") from None
    except IsADirectoryError:
        raise IsADirectoryError(f"config path is a directory, not a file: {p}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and an
        # integer of more than the 4300 digits Python converts from text.
        raise ConfigError(f"{p}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _say(args, text: str, stream=None) -> None:
    # print resolves a stream of None to sys.stdout when it is called.
    if not args.quiet:
        print(text, file=stream)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.master_seed
    result = run(cfg, seed)
    out = Path(args.out)
    result_path = write_run_outputs(result, out)
    report = result.openness
    _say(args, f"scenario: {cfg.name}")
    _say(args, f"seed: {seed}")
    _say(args, f"channels: mask {cfg.channels.mask} ({cfg.channels.to_json()})")
    _say(args, f"result: {result_path}")
    _say(args, "")
    _say(args, f"{'triple':>12}  {'claims':>6}  {'true':>5}  {'false':>5}  {'openness':>8}  {'normalized':>10}")
    for t in report.per_triple:
        _say(args, _score_row(",".join(str(x) for x in t.teams), t))
    _say(args, _score_row("union", report))
    return EXIT_OK


def _score_row(name: str, score: Score) -> str:
    return (
        f"{name:>12}  {score.union_size:>6}  {score.true_count:>5}  {score.false_count:>5}"
        f"  {score.openness:>8}  {score.normalized:>10.3f}"
    )


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    replicates = args.replicates if args.replicates is not None else cfg.replicates
    target = Path(args.out) / cfg.name
    if target.exists() and any(target.iterdir()) and not args.force:
        raise OSError(f"output directory {target} is not empty; pass --force to reuse it")

    def build(staging: Path):
        result = sweep(cfg, replicates, out_dir=staging, jobs=args.jobs)
        return result, write_sweep_outputs(result, staging)

    result, written = replace_directory(target, build)
    csv_path, summary_path = (target / path.name for path in written)
    _say(args, f"scenario: {cfg.name}  replicates: {replicates}  master_seed: {cfg.master_seed}")
    _say(args, f"rows: {len(result.rows)} -> {csv_path}")
    _say(args, f"summary: {summary_path}")
    _say(args, "")
    _say(args, f"{'combo':>6}  {'mean openness':>14}  {'stddev':>8}  {'mean normalized':>16}")
    for combo in result.per_combo:
        _say(
            args,
            f"{combo.combo_mask:>6}  {combo.mean_openness:>14.2f}  {combo.stddev_openness:>8.2f}"
            f"  {combo.mean_normalized:>16.3f}",
        )
    st = result.sign_test_all_vs_none
    _say(args, "")
    _say(
        args,
        f"all channels vs none: wins {st.wins}, losses {st.losses}, ties {st.ties}, "
        f"one-sided p {st.p_greater:.2e}",
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.config is not None:
        cfg = _load_config(args.config)
    else:
        cfg = default_scenario()
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    report = validate_monotonicity(
        args.trials, cfg, np.random.default_rng(seed), break_passthrough=args.break_passthrough
    )
    payload = report.to_json()
    payload["seed"] = seed
    payload["break_passthrough"] = args.break_passthrough
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    _say(args, f"seed: {seed}", stream=sys.stderr)
    _say(
        args,
        f"{report.violations} violation(s) in {report.trials} trials",
        stream=sys.stderr,
    )
    if report.violations > 0:
        for line in report.transcripts:
            _say(args, f"  {line}", stream=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_oracle(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    report = correlation_oracle(
        args.p_stay, args.dist, args.delta, args.samples, np.random.default_rng(seed)
    )
    payload = report.to_json()
    payload["seed"] = seed
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    _say(
        args,
        f"seed {seed}: analytic {report.analytic:.6f}, empirical {report.empirical:.6f}, "
        f"abs diff {report.abs_diff:.6f}",
        stream=sys.stderr,
    )
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="ktsim", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress human-readable output")
    common.add_argument("--seed", type=_seed, default=None, help="deterministic non-negative seed (printed when chosen)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="execute one scenario run")
    p_run.add_argument("--config", required=True, help="scenario config JSON")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run all 8 channel combinations")
    p_sweep.add_argument("--config", required=True, help="scenario config JSON")
    p_sweep.add_argument("--replicates", type=int, default=None, help="paired replicates (default from config)")
    p_sweep.add_argument("--out", default="results", help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument("--force", action="store_true", help="reuse a non-empty output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", parents=[common], help="randomized monotonicity validation")
    p_val.add_argument("--trials", type=int, default=1000, help="number of randomized trials")
    p_val.add_argument("--config", default=None, help="scenario config JSON (default: built-in scenario)")
    p_val.add_argument(
        "--break-passthrough",
        action="store_true",
        help="negative control: corrupt prior pass-through and expect violations",
    )
    p_val.set_defaults(func=_cmd_validate)

    p_oracle = sub.add_parser("oracle", parents=[common], help="Monte Carlo correlation oracle")
    p_oracle.add_argument("--p-stay", type=float, required=True, dest="p_stay")
    p_oracle.add_argument("--dist", type=int, required=True)
    p_oracle.add_argument("--delta", type=float, default=0.0)
    p_oracle.add_argument("--samples", type=int, default=100_000)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenProcessPool as exc:
        # A worker killed from outside (the OOM killer, a signal) leaves no
        # Python exception behind, only a pool that cannot finish.
        print(f"error: a sweep worker process died, perhaps out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
