"""Command-line frontend: it parses arguments, calls the engine and prints.

Subcommands: execute, simplify, select, prompt, run, bootstrap.
Machine-readable JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 usage/config error, 2 captured domain failure.

``run`` and ``bootstrap`` read a JSON config file and hand it, with the
file's directory for resolving its paths, to :mod:`semkit.experiment`, which
checks and loads it; ``select`` and ``prompt`` load their dataset and split
through the same engine.  See README for the config schemas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import SemkitError
from .execute import DIALECTS, ENVIRONMENTS, dialect_for, load_environment, run_program
from .experiment import (SELECTION_METHODS, dd_text, load_selector, resolve_path, run_bootstrap,
                         run_experiment, run_output_dir)
from .prompts import DD_VARIANTS, build_prompt, default_template
from .resources import read_json_object, read_text, write_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def cmd_execute(args) -> int:
    program_text = read_text(args.program).strip()
    if not program_text:
        print("error: empty program file", file=sys.stderr)
        return 1
    env_object = load_environment(args.env, resolve_path(args.world))
    outcome = run_program(args.dialect, program_text, args.env, env_object)
    print(json.dumps(outcome.to_json(), ensure_ascii=False, allow_nan=False))
    if not outcome.ok:
        print(f"execution failed: {outcome.message}", file=sys.stderr)
        return 2
    return 0


def cmd_simplify(args) -> int:
    from .social import desimplify_ldcs, parse_ldcs, render_ldcs, simplify_ldcs

    lines = read_text(args.input).splitlines()
    out_lines = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            if args.direction == "simplify":
                ast = simplify_ldcs(parse_ldcs(line, "full"))
            else:
                ast = desimplify_ldcs(parse_ldcs(line, "simple"))
            out_lines.append(render_ldcs(ast))
        except SemkitError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            return 2
    text = "\n".join(out_lines) + "\n"
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_select(args) -> int:
    selector = load_selector(args.dataset, args.split, args.dialect)
    ids = selector.select(args.method, args.k, args.seed, args.query)
    print(json.dumps({"method": args.method, "k": args.k, "ids": ids,
                      "coverage_fraction": selector.coverage_fraction(ids)}, ensure_ascii=False,
                     allow_nan=False))
    return 0


def cmd_prompt(args) -> int:
    dialect_for(args.dialect, args.env)
    selector = load_selector(args.dataset, args.split, args.dialect)
    ids = selector.select(args.method, args.k, args.seed, args.utterance)
    dataset = selector.dataset
    demonstrations = tuple((dataset[i].utterance, dataset[i].programs[args.dialect])
                           for i in ids)
    sys.stdout.write(build_prompt(default_template(), dd_text(args.env, args.dialect, args.dd),
                                  demonstrations, args.utterance))
    return 0


def cmd_run(args) -> int:
    config_path = Path(args.config)
    config, base = read_json_object(config_path), config_path.parent
    out_dir = run_output_dir(config, base, args.output_dir)
    print(json.dumps(run_experiment(config, base, out_dir, jobs=args.jobs), ensure_ascii=False,
                     allow_nan=False))
    return 0


def cmd_bootstrap(args) -> int:
    config_path = Path(args.config)
    print(json.dumps(run_bootstrap(read_json_object(config_path), config_path.parent),
                     ensure_ascii=False, allow_nan=False))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="semkit", description="Execute and evaluate meaning representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("execute", help="run one program file against an environment")
    p.add_argument("--env", required=True, choices=tuple(ENVIRONMENTS))
    p.add_argument("--dialect", required=True, choices=tuple(DIALECTS))
    p.add_argument("--program", required=True)
    p.add_argument("--world", required=True, help="model/db/world file (or bundled:...)")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("simplify", help="convert full-dialect programs to simple and back")
    p.add_argument("--direction", choices=("simplify", "desimplify"), default="simplify")
    p.add_argument("--input", required=True, help="one program per line")
    p.add_argument("--output")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("select", help="pick demonstrations from a train split")
    p.add_argument("--method", choices=SELECTION_METHODS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--dialect", required=True, choices=tuple(DIALECTS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query", help="test utterance (bm25 only)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("prompt", help="print an assembled prompt")
    p.add_argument("--env", required=True, choices=tuple(ENVIRONMENTS))
    p.add_argument("--dialect", required=True, choices=tuple(DIALECTS))
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--dd", choices=DD_VARIANTS, default="full")
    p.add_argument("--method", choices=SELECTION_METHODS, default="random")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utterance", required=True)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--jobs", type=int, default=1,
                   help="overlap up to N completion requests; programs run and are "
                        "scored on one thread, in test order")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bootstrap", help="grow an annotation pool with verified programs")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bootstrap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SemkitError, OSError) as exc:  # OSError: a missing or unreadable file, a directory
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
