"""Command-line frontend.

Subcommands: execute, simplify, select, prompt, run, bootstrap.
Machine-readable JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 usage/config error, 2 captured domain failure.

Experiment configs (``run``) are JSON; paths are resolved relative to the
config file, and the ``bundled:`` prefix names packaged resources, e.g.
``bundled:datasets/geoquery.jsonl``.  See README for the schema; the
experiment engine itself lives in :mod:`semkit.experiment`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import load_dataset, load_split
from .errors import SemkitError
from .execute import DIALECTS, ENVIRONMENTS, dialect_for, load_environment, run_program
from .experiment import (SELECTION_METHODS, DemoSelector, dd_text, load_config_environment,
                         make_client, resolve_path, run_experiment)
from .prompts import DD_VARIANTS, PromptSpec, build_prompt, load_dd_source
from .resources import INTEGER, OBJECT, STRING, STRINGS, Schema, dd_path, read_json_object


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def cmd_execute(args) -> int:
    program_text = Path(args.program).read_text(encoding="utf-8").strip()
    if not program_text:
        print("error: empty program file", file=sys.stderr)
        return 1
    env_object = load_environment(args.env, resolve_path(args.world))
    outcome = run_program(args.dialect, program_text, args.env, env_object)
    print(json.dumps(outcome.to_json(), ensure_ascii=False))
    if not outcome.ok:
        print(f"execution failed: {outcome.message}", file=sys.stderr)
        return 2
    return 0


def cmd_simplify(args) -> int:
    from .social import desimplify_ldcs, parse_ldcs, render_ldcs, simplify_ldcs

    lines = Path(args.input).read_text(encoding="utf-8").splitlines()
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
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_select(args) -> int:
    dataset = load_dataset(resolve_path(args.dataset))
    split = load_split(resolve_path(args.split), dataset)
    selector = DemoSelector(dataset, split, args.dialect)
    if args.method == "coverage":
        ids, fraction = selector.coverage_picks(args.k)
    else:
        ids = selector.select(args.method, args.k, args.seed, args.query)
        fraction = selector.coverage_fraction(ids)
    print(json.dumps({"method": args.method, "k": args.k, "ids": ids,
                      "coverage_fraction": fraction}, ensure_ascii=False))
    return 0


def cmd_prompt(args) -> int:
    dialect_for(args.dialect, args.env)
    dataset = load_dataset(resolve_path(args.dataset))
    split = load_split(resolve_path(args.split), dataset)
    ids = DemoSelector(dataset, split, args.dialect).select(args.method, args.k, args.seed,
                                                            args.utterance)
    spec = PromptSpec(
        dd_variant=args.dd, dd_text=dd_text(args.env, args.dialect, args.dd),
        demonstrations=tuple((dataset[i].utterance, dataset[i].programs[args.dialect])
                             for i in ids),
        test_utterance=args.utterance)
    sys.stdout.write(build_prompt(spec))
    return 0


_RUN_OUTPUT = Schema(("output_dir", STRING, None))


def cmd_run(args) -> int:
    config_path = Path(args.config)
    config = read_json_object(config_path)
    base = config_path.parent
    (output_dir,) = _RUN_OUTPUT.read(config, "run config")
    if args.output_dir:
        out_dir = Path(args.output_dir)
    elif output_dir is not None:
        out_dir = resolve_path(output_dir, base)
    else:
        out_dir = Path("out")  # relative to the caller, never the config's home
    aggregate = run_experiment(config, base, out_dir, jobs=args.jobs)
    print(json.dumps(aggregate, ensure_ascii=False))
    return 0


_BOOTSTRAP_CONFIG = Schema(("dataset", STRING), ("environment", STRING), ("dialect", STRING),
                           ("gold_dialect", STRING), ("seed_ids", STRINGS),
                           ("unlabeled_ids", STRINGS), ("client", OBJECT), ("k", INTEGER, 3),
                           ("passes", INTEGER, 3), ("seed", INTEGER, 0),
                           ("environment_file", STRING, None), ("output", STRING, None))


def cmd_bootstrap(args) -> int:
    from .corpus import Example, example_to_json_line
    from .llm import BootstrapConfig, bootstrap_annotations

    config_path = Path(args.config)
    config = read_json_object(config_path)
    base = config_path.parent
    (dataset_file, environment, dialect, gold_dialect, seed_ids, unlabeled_ids, client_config,
     k, passes, seed, environment_file, output) = _BOOTSTRAP_CONFIG.read(config,
                                                                          "bootstrap config")
    if not seed_ids:
        raise SemkitError("bootstrap config: seed_ids must be nonempty")
    if k < 1:
        raise SemkitError(f"bootstrap config: k must be at least 1, not {k}")
    client, model = make_client(client_config, base, "bootstrap config")
    dataset = load_dataset(resolve_path(dataset_file, base))
    for key, ids in (("seed_ids", seed_ids), ("unlabeled_ids", unlabeled_ids)):
        unknown = [ex_id for ex_id in ids if ex_id not in dataset]
        if unknown:
            raise SemkitError(f"bootstrap config: {key} names unknown example ids: {unknown}")
    seed_pool = [dataset[i] for i in seed_ids]
    # ids listed as unlabeled are treated as lacking the target-dialect annotation
    unlabeled = []
    for ex_id in unlabeled_ids:
        example = dataset[ex_id]
        programs = {d: p for d, p in example.programs.items() if d != dialect}
        unlabeled.append(Example(id=example.id, utterance=example.utterance,
                                 programs=programs, tags=example.tags))
    env_object = load_config_environment(environment, environment_file, base)
    bootstrap_config = BootstrapConfig(
        environment=environment, dialect=dialect, gold_dialect=gold_dialect,
        model=model, k=k, passes=passes, seed=seed,
        dd_declarations=load_dd_source(dd_path(environment, dialect)))
    pool = bootstrap_annotations(seed_pool, unlabeled, env_object, client, bootstrap_config)
    # without an output key, relative to the caller, like run's default out
    output = Path("pool.jsonl") if output is None else resolve_path(output, base)
    with open(output, "w", encoding="utf-8") as fh:
        for example in pool:
            fh.write(example_to_json_line(example) + "\n")
    print(json.dumps({"pool_before": len(seed_pool), "pool_after": len(pool),
                      "output": str(output)}, ensure_ascii=False))
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
