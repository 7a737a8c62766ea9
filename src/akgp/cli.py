"""Command-line entry point for reproducible runs.

Subcommands: ``gen-data`` (synthetic world to files), ``pretrain``,
``finetune``, ``eval``, ``retrieve``, ``ablate``, ``check-grads``.

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 numeric
failure mid-run. Errors go to standard error as one JSON line
``{"code": N, "message": "..."}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, TrainConfig, parse_config
from .data import DataError, read_examples, write_examples
from .gradcheck import run_gradient_report
from .kg import (TripleParseError, build_graph, index_nodes, load_triples, save_triples,
                 subgraph_stats)
from .manifest import write_manifest
from .retrieval import cosine_scores, topk_indices
from .rng import derive_seed
from .synthbench import (
    DEFAULT_ABLATION_SEEDS,
    ablation_csv,
    ablation_markdown,
    gen_dataset,
    gen_world,
    run_ablation,
    split_dataset,
)
from .trainer import (
    STAGE_FINETUNE,
    STAGE_PRETRAIN,
    NumericError,
    collate_dataset,
    encode_rows,
    evaluate,
    finetune_epoch,
    knowledge_matrix,
    make_run,
    pretrain_epoch,
    restore_state,
    save_state,
    start_stage,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CHECKPOINT_NAME = "checkpoint.akgp"
RUN_LOG_NAME = "run_log.jsonl"
# config keys a resumed run may change: its epoch budget
RESUMABLE_CHANGES = ("pretrain_epochs", "finetune_epochs")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="akgp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, kg=False, data=False, out=False, checkpoint=False, resume=False):
        p.add_argument("--config", required=True,
                       help="JSON config file ({} applies all defaults)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if kg:
            p.add_argument("--kg", required=True, help="knowledge graph TSV triples")
        if data:
            p.add_argument("--data", required=True, help="dataset JSON lines file")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint file to load")
        if resume:
            p.add_argument("--resume", action="store_true",
                           help="resume the run recorded in the checkpoint")

    common(sub.add_parser("gen-data", help="generate a synthetic world"), out=True)
    common(sub.add_parser("pretrain", help="stage-1 alignment pretraining"),
           kg=True, data=True, out=True, checkpoint=True, resume=True)
    common(sub.add_parser("finetune", help="stage-2 task fine-tuning"),
           kg=True, data=True, out=True, checkpoint=True, resume=True)
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval, kg=True, data=True, checkpoint=True)
    p_eval.add_argument("--out", help="optional output directory for metrics")
    p_retr = sub.add_parser("retrieve", help="print top-k knowledge matches")
    common(p_retr, kg=True, data=True, checkpoint=True)
    common(sub.add_parser("ablate", help="run the component ablation"),
           kg=True, data=True, out=True)
    sub.add_parser("check-grads", help="finite-difference gradient report") \
        .add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args) -> TrainConfig:
    cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _build_graph(cfg: TrainConfig, kg_path):
    return build_graph(load_triples(kg_path), cfg.d_k, derive_seed(cfg.seed, "graph"))


def _config_differences(saved: dict, current: dict, prefix: str = "") -> list[str]:
    """Qualified keys whose values differ, apart from RESUMABLE_CHANGES."""
    keys = []
    for key in sorted(set(saved) | set(current)):
        old, new = saved.get(key), current.get(key)
        if isinstance(old, dict) and isinstance(new, dict):
            keys += _config_differences(old, new, f"{prefix}{key}.")
        elif old != new and prefix + key not in RESUMABLE_CHANGES:
            keys.append(prefix + key)
    return keys


def _prepare_state(cfg, graph, args, stage):
    """The only way into a stage: the run resumed with ``--resume``, else a
    new one with ``--checkpoint``'s parameters if given, entering ``stage``."""
    if getattr(args, "resume", False):
        path = args.checkpoint or os.path.join(args.out, CHECKPOINT_NAME)
        data = load_checkpoint(path)
        changed = _config_differences(data.config, cfg.to_dict())
        if changed:
            raise ConfigError(f"checkpoint {path} was saved with a different config "
                              f"(differing keys: {', '.join(changed)})")
        if data.stage != stage:
            raise DataError(
                f"checkpoint {path} was saved in a different training stage")
        state = make_run(cfg, graph)
        restore_state(state, data, resume=True)
        return state
    state = make_run(cfg, graph)
    if args.checkpoint:
        restore_state(state, load_checkpoint(args.checkpoint), resume=False)
    start_stage(state, stage)
    return state


def _append_log(out_dir, record):
    with open(os.path.join(out_dir, RUN_LOG_NAME), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _trim_log(out_dir, command, epochs_done):
    """Drop ``command``'s run-log lines for epochs after ``epochs_done``.

    An epoch's line is appended before its checkpoint is saved, so an
    interrupt between the two leaves a line that the resumed run writes
    again; a line torn by an interrupted append is dropped as well.
    """
    path = os.path.join(out_dir, RUN_LOG_NAME)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    kept = []
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not (isinstance(record, dict) and record.get("command") == command
                and record.get("epoch", 0) > epochs_done):
            kept.append(line + "\n")
    if len(kept) == len(lines):
        return
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(tmp_path, path)


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    world = gen_world(cfg.world, cfg.d_i, cfg.world.seed)
    if world.vocab_size != cfg.vocab_size:
        raise ConfigError(
            f"vocab_size: config says {cfg.vocab_size} but the world implies "
            f"{world.vocab_size} (template plus entity tokens)")
    examples = gen_dataset(world, cfg.world.n_examples, cfg.world.seed)
    kg_path = os.path.join(args.out, "kg.tsv")
    data_path = os.path.join(args.out, "dataset.jsonl")
    save_triples(kg_path, world.triples)
    write_examples(data_path, examples)
    graph = _build_graph(cfg, kg_path)
    print(json.dumps(subgraph_stats(graph), sort_keys=True))
    write_manifest(args.out, "gen-data", cfg.to_dict(),
                   {"config": args.config}, ["kg.tsv", "dataset.jsonl"],
                   cfg.seed, time.perf_counter() - started)
    return EXIT_OK


def _train_command(args, stage) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    graph = _build_graph(cfg, args.kg)
    examples = read_examples(args.data, cfg.n_classes, cfg.d_i, graph.node_index)
    state = _prepare_state(cfg, graph, args, stage)
    dataset = collate_dataset(state, examples)
    ckpt_path = os.path.join(args.out, CHECKPOINT_NAME)
    if stage == STAGE_PRETRAIN:
        total_epochs, run_epoch, name = cfg.pretrain_epochs, pretrain_epoch, "pretrain"
    else:
        total_epochs, run_epoch, name = cfg.finetune_epochs, finetune_epoch, "finetune"
    if args.resume:
        _trim_log(args.out, name, state.epochs_done)
    while state.epochs_done < total_epochs:
        stats = run_epoch(state, dataset)
        record = {"command": name, "epoch": state.epochs_done, **stats}
        _append_log(args.out, record)
        save_state(ckpt_path, state)
    write_manifest(args.out, name, cfg.to_dict(),
                   {"config": args.config, "kg": args.kg, "data": args.data,
                    "checkpoint": args.checkpoint},
                   [CHECKPOINT_NAME, RUN_LOG_NAME], cfg.seed,
                   time.perf_counter() - started)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    started = time.perf_counter()
    graph = _build_graph(cfg, args.kg)
    dataset = read_examples(args.data, cfg.n_classes, cfg.d_i, graph.node_index)
    state = _prepare_state(cfg, graph, args, STAGE_FINETUNE)
    metrics = evaluate(state, dataset)
    print(json.dumps(metrics, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
        write_manifest(args.out, "eval", cfg.to_dict(),
                       {"config": args.config, "kg": args.kg, "data": args.data,
                        "checkpoint": args.checkpoint},
                       ["metrics.json"], cfg.seed, time.perf_counter() - started)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    cfg = _load_config(args)
    graph = _build_graph(cfg, args.kg)
    dataset = read_examples(args.data, cfg.n_classes, cfg.d_i, graph.node_index)
    state = _prepare_state(cfg, graph, args, STAGE_FINETUNE)
    knowledge = knowledge_matrix(state)
    batch = collate_dataset(state, dataset)
    fused = encode_rows(state.model, batch, cfg.batch_size)
    k = min(cfg.retrieve_k, state.graph.n_nodes)
    scores = cosine_scores(fused, knowledge.data)
    top = topk_indices(scores, k)
    sims = np.take_along_axis(scores, top, axis=1)
    for indices, similarities in zip(top, sims):
        for index, similarity in zip(indices, similarities):
            print(json.dumps({
                "node_id": state.graph.node_ids[index],
                "similarity": float(similarity),
            }, sort_keys=True))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    triples = load_triples(args.kg)
    nodes, _ = index_nodes(triples)
    examples = read_examples(args.data, cfg.n_classes, cfg.d_i, nodes)
    train, test = split_dataset(examples)
    seeds = (list(DEFAULT_ABLATION_SEEDS) if args.seed is None
             else [args.seed, args.seed + 1, args.seed + 2])
    rows = run_ablation(triples, train, test, cfg, seeds)
    csv_text = ablation_csv(rows, seeds)
    md_text = ablation_markdown(rows)
    with open(os.path.join(args.out, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(os.path.join(args.out, "ablation.md"), "w", encoding="utf-8") as fh:
        fh.write(md_text)
    print(md_text, end="")
    write_manifest(args.out, "ablate", cfg.to_dict(),
                   {"config": args.config, "kg": args.kg, "data": args.data},
                   ["ablation.csv", "ablation.md"], cfg.seed,
                   time.perf_counter() - started)
    return EXIT_OK


def cmd_check_grads(args) -> int:
    reports = run_gradient_report(master_seed=args.seed, rounds=3)
    all_ok = True
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{verdict} {r.name:26s} rounds={r.rounds} "
              f"max_rel_err={r.max_rel_err:.3e}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_NUMERIC


def _dispatch(args) -> int:
    if args.command == "gen-data":
        return cmd_gen_data(args)
    if args.command == "pretrain":
        return _train_command(args, STAGE_PRETRAIN)
    if args.command == "finetune":
        return _train_command(args, STAGE_FINETUNE)
    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "retrieve":
        return cmd_retrieve(args)
    if args.command == "ablate":
        return cmd_ablate(args)
    if args.command == "check-grads":
        return cmd_check_grads(args)
    raise UsageError("missing command; try --help")


def _fail(code: int, message: str) -> int:
    print(json.dumps({"code": code, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite values are reported as NumericError, not as warnings
        with np.errstate(all="ignore"):
            return _dispatch(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except (ConfigError, DataError, TripleParseError, CheckpointError) as exc:
        return _fail(EXIT_DATA, str(exc))
    except OSError as exc:
        return _fail(EXIT_DATA, f"{exc.__class__.__name__}: {exc}")
    except NumericError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        return _fail(EXIT_DATA, str(exc))


if __name__ == "__main__":
    sys.exit(main())
